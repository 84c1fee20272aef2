package qec

import "fmt"

// SurfaceCoord identifies a rotated-surface-code plaquette by its corner
// coordinate in the (d+1)×(d+1) face grid.
type SurfaceCoord struct{ Row, Col int }

// SurfaceLayout carries the geometric structure of a rotated planar surface
// code: which data qubits each plaquette touches and the plaquette type.
// The surface-code memory experiments and the homogeneous lattice baseline
// both need this geometry, not just the abstract stabilizers.
type SurfaceLayout struct {
	D int
	// XPlaquettes and ZPlaquettes list each face's data-qubit supports
	// (indices into the row-major d×d data grid), aligned with the Code's
	// XStabs/ZStabs order.
	XPlaquettes [][]int
	ZPlaquettes [][]int
	// XCoords and ZCoords give each face's grid coordinate, same order.
	XCoords []SurfaceCoord
	ZCoords []SurfaceCoord
}

// Surface returns the rotated planar surface code of distance d (d ≥ 2),
// with d² data qubits on a grid. X-type plaquettes terminate on the top and
// bottom boundaries, Z-type on the left and right. The logical Z runs along
// the top row, the logical X down the left column.
func Surface(d int) (*Code, *SurfaceLayout) {
	if d < 2 {
		panic(fmt.Sprintf("qec: surface code distance %d < 2", d))
	}
	n := d * d
	layout := &SurfaceLayout{D: d}
	var xSup, zSup [][]int
	for i := 0; i <= d; i++ {
		for j := 0; j <= d; j++ {
			var cells []int
			for _, rc := range [][2]int{{i - 1, j - 1}, {i - 1, j}, {i, j - 1}, {i, j}} {
				r, c := rc[0], rc[1]
				if r >= 0 && r < d && c >= 0 && c < d {
					cells = append(cells, r*d+c)
				}
			}
			if len(cells) < 2 {
				continue
			}
			isX := (i+j)%2 == 0
			onTopBottom := i == 0 || i == d
			onLeftRight := j == 0 || j == d
			if len(cells) == 2 {
				// Boundary faces: X only on top/bottom, Z only on left/right.
				if isX && !onTopBottom {
					continue
				}
				if !isX && !onLeftRight {
					continue
				}
			}
			if isX {
				xSup = append(xSup, cells)
				layout.XCoords = append(layout.XCoords, SurfaceCoord{i, j})
			} else {
				zSup = append(zSup, cells)
				layout.ZCoords = append(layout.ZCoords, SurfaceCoord{i, j})
			}
		}
	}
	layout.XPlaquettes = xSup
	layout.ZPlaquettes = zSup

	logicalZ := make([]int, d) // top row
	logicalX := make([]int, d) // left column
	for k := 0; k < d; k++ {
		logicalZ[k] = k
		logicalX[k] = k * d
	}
	code := FromSupports(fmt.Sprintf("Surface-d%d", d), n, d, xSup, zSup, logicalX, logicalZ)
	return code, layout
}
