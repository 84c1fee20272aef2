package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark's hosts are shared VMs whose speed drifts with their
// neighbours' load. On the 2-vCPU VM it was set up on, the same body took
// 60% longer in one minute than in another, and the speed changed from
// one second to the next: a kernel timed one repetition earlier tracked a
// body worse than no kernel at all. So the end-to-end times are calibrated
// against a fixed kernel that owes nothing to the simulator, sampled while
// the body runs: the body calls pace before each point, and once at least
// calGap of body time has passed since the last sample, pace has a helper
// process run the kernel for 1/calShare of that time. A repetition's time
// is then scaled by the reference machine's kernel time ÷ the kernel's
// time over the samples taken during it: seconds at the speed of the
// reference machine. Wall times are scaled by the kernel's wall time and
// CPU times by its CPU time, since the hypervisor's turns for other
// guests stretch the one and not the other. A setup probe samples the
// kernel right after its setup, and its CPU time is scaled the same way
// (setupProbe.setupS). A change to the program moves the body and leaves
// the kernel alone; a slower host moves both.
//
// The helper is a process of its own so that its memory, allocations and
// garbage collection stay out of the body's peak_rss_mb, allocs and GC
// pauses. It runs the kernel on as many threads as the body keeps busy:
// the two vCPUs slowed independently of each other, and a body on both
// runs at the mean of their speeds.
//
// The kernel's five parts stand for the kinds of work the bodies do:
// sorting 64 KiB (branchy work in the core's own cache), updating random
// words of a 4 MiB table (scattered access past it), inserting random keys
// into a binary search tree held in an array (dependent loads, as in
// union-find and the event queue), and two arithmetic parts that keep the
// core's multiplier and its shift and logic units busy with eight
// independent streams each (the bit-parallel sampler and the syndrome
// arithmetic). A neighbour slows each kind by its own amount, and the
// bodies by a mix of them. A kernel unit runs each part once; the kernel
// time of a sample is the geometric mean over the parts of their mean time
// per unit.

const (
	calSortLen  = 1 << 14 // uint32s: 64 KiB
	calTableLen = 1 << 19 // uint64s: 4 MiB; a power of two
	calUpdates  = 1 << 15
	calNodes    = 1 << 12
	calMixes    = 1 << 15 // per stream
	calShifts   = 1 << 15 // per stream
	calParts    = 5

	// calGap is the least body time between two kernel samples; a sample
	// runs the kernel for 1/calShare of the body time before it, and
	// calFirst before each repetition's first point.
	calGap   = 200 * time.Millisecond
	calShare = 3
	calFirst = 100 * time.Millisecond
	// calProbe is the least kernel time a setup probe samples after its
	// setup (probeSetup).
	calProbe = 20 * time.Millisecond
)

// refKernelS is the reference machine's kernel time by the number of
// threads the kernel runs on, a round figure near what a shared 2-vCPU
// Intel Xeon VM (Sapphire Rapids, Go 1.24) measured on 2026-10-16: 0.6 to
// 0.9 ms in wall and CPU time, on one thread and on two. It only sets the
// scale: a run on a host exactly that fast reports its measured seconds.
var refKernelS = map[int]float64{1: 1.0e-3, 2: 1.0e-3}

// kernel holds one thread's inputs and scratch, built before any timing so
// that the timed units fault no pages in.
type kernel struct {
	src, buf []uint32
	table    []uint64
	nodes    []bstNode
	rng      uint64
	sink     uint64
}

type bstNode struct {
	key         uint64
	left, right int32
}

// mix is the splitmix64 output function, the kernel's source of
// pseudo-random numbers.
func mix(s uint64) uint64 {
	s += 0x9e3779b97f4a7c15
	z := (s ^ s>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func newKernel() *kernel {
	k := &kernel{
		src:   make([]uint32, calSortLen),
		buf:   make([]uint32, calSortLen),
		table: make([]uint64, calTableLen),
		nodes: make([]bstNode, 0, calNodes),
	}
	for i := range k.src {
		k.src[i] = uint32(mix(uint64(i)))
	}
	for i := range k.table {
		k.table[i] = uint64(i)
	}
	return k
}

func (k *kernel) sortPart() {
	copy(k.buf, k.src)
	slices.Sort(k.buf)
}

func (k *kernel) updatePart() {
	x := k.rng
	for i := 0; i < calUpdates; i++ {
		x = mix(x)
		k.table[x&(calTableLen-1)] ^= x
	}
	k.rng = x
}

func (k *kernel) treePart() {
	k.nodes = append(k.nodes[:0], bstNode{key: mix(k.rng), left: -1, right: -1})
	for i := int32(1); i < calNodes; i++ {
		key := mix(k.rng + uint64(i))
		k.nodes = append(k.nodes, bstNode{key: key, left: -1, right: -1})
		for p := int32(0); ; {
			next := &k.nodes[p].right
			if key < k.nodes[p].key {
				next = &k.nodes[p].left
			}
			if *next < 0 {
				*next = i
				break
			}
			p = *next
		}
	}
	k.rng++
	k.sink += k.nodes[len(k.nodes)-1].key
}

func (k *kernel) mulPart() {
	var s [8]uint64
	for j := range s {
		s[j] = k.rng + uint64(j)
	}
	for i := 0; i < calMixes; i++ {
		s[0], s[1], s[2], s[3] = mix(s[0]), mix(s[1]), mix(s[2]), mix(s[3])
		s[4], s[5], s[6], s[7] = mix(s[4]), mix(s[5]), mix(s[6]), mix(s[7])
	}
	k.sink += s[0] ^ s[1] ^ s[2] ^ s[3] ^ s[4] ^ s[5] ^ s[6] ^ s[7]
}

func (k *kernel) shiftPart() {
	var s [8]uint64
	for j := range s {
		s[j] = mix(k.rng+uint64(j)) | 1
	}
	for i := 0; i < calShifts; i++ {
		for j := range s {
			x := s[j] // xorshift64
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			s[j] = x
		}
	}
	k.sink += s[0] ^ s[1] ^ s[2] ^ s[3] ^ s[4] ^ s[5] ^ s[6] ^ s[7]
}

// sample is one kernel sample: per thread, the units it ran and each
// part's summed wall and CPU time in seconds.
type sample struct {
	Units    []int               `json:"units"`
	PartS    [][calParts]float64 `json:"part_s"`
	PartCPUS [][calParts]float64 `json:"part_cpu_s"`
}

// kernelS is the sample's kernel time in wall time (cpu false) or in CPU
// time (cpu true): the geometric mean over the parts of their mean time
// per unit over every thread. The two part when the hypervisor runs other
// guests on our vCPUs, which stretches wall times and not CPU times, the
// body's as well as the kernel's.
func (s sample) kernelS(cpu bool) float64 {
	times := s.PartS
	if cpu {
		times = s.PartCPUS
	}
	units := 0
	for _, u := range s.Units {
		units += u
	}
	logSum := 0.0
	for p := 0; p < calParts; p++ {
		sum := 0.0
		for _, t := range times {
			sum += t[p]
		}
		logSum += math.Log(sum / float64(units))
	}
	return math.Exp(logSum / calParts)
}

// runKernel runs whole kernel units on every kernel at once, one locked
// thread each, until budget has passed, and at least one unit each.
func runKernel(ks []*kernel, budget time.Duration) sample {
	s := sample{
		Units:    make([]int, len(ks)),
		PartS:    make([][calParts]float64, len(ks)),
		PartCPUS: make([][calParts]float64, len(ks)),
	}
	deadline := time.Now().Add(budget)
	var wg sync.WaitGroup
	for i, k := range ks {
		wg.Add(1)
		go func(i int, k *kernel) {
			defer wg.Done()
			runtime.LockOSThread() // so that the thread CPU clock is this goroutine's
			defer runtime.UnlockOSThread()
			parts := [calParts]func(){k.sortPart, k.updatePart, k.treePart, k.mulPart, k.shiftPart}
			for {
				for p, part := range parts {
					t0, c0 := time.Now(), threadCPUSeconds()
					part()
					s.PartS[i][p] += time.Since(t0).Seconds()
					s.PartCPUS[i][p] += threadCPUSeconds() - c0
				}
				s.Units[i]++
				if !time.Now().Before(deadline) {
					return
				}
			}
		}(i, k)
	}
	wg.Wait()
	return s
}

// threadCPUSeconds is the calling thread's CPU time.
func threadCPUSeconds() float64 {
	const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	// Linux always has the calling thread's CPU clock, so this cannot fail.
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}

// inProcessKernel samples the kernel in the calling process, as the
// helper does; the tests use it in place of a helper.
func inProcessKernel(threads int) func(time.Duration) (sample, error) {
	ks := make([]*kernel, threads)
	for i := range ks {
		ks[i] = newKernel()
	}
	return func(budget time.Duration) (sample, error) { return runKernel(ks, budget), nil }
}

// childCalibrate is the helper process: for each budget (nanoseconds, one
// per line) it reads, it runs the kernel on threads threads for that long
// and writes the sample as one line of JSON, until its input closes.
func childCalibrate(threads int, in io.Reader, out io.Writer) error {
	run := inProcessKernel(threads)
	enc := json.NewEncoder(out)
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		ns, err := strconv.ParseInt(sc.Text(), 10, 64)
		if err != nil {
			return fmt.Errorf("calibration request %q: %w", sc.Text(), err)
		}
		s, _ := run(time.Duration(ns))
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return sc.Err()
}

// calibrator is the run process's end of a helper.
type calibrator struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *json.Decoder
}

func startCalibrator(threads int) (*calibrator, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-child", "calibrate", "-threads", strconv.Itoa(threads))
	cmd.SysProcAttr = childAttr()
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("calibration helper: %w", err)
	}
	return &calibrator{cmd: cmd, in: in, out: json.NewDecoder(bufio.NewReader(out))}, nil
}

// sample has the helper run the kernel for budget and returns the sample.
func (c *calibrator) sample(budget time.Duration) (sample, error) {
	var s sample
	if _, err := fmt.Fprintln(c.in, int64(budget)); err != nil {
		return s, fmt.Errorf("calibration helper: %w", err)
	}
	if err := c.out.Decode(&s); err != nil {
		return s, fmt.Errorf("calibration helper: %w", err)
	}
	return s, nil
}

// close ends the helper and waits for it to exit.
func (c *calibrator) close() error {
	c.in.Close()
	if err := c.cmd.Wait(); err != nil {
		return fmt.Errorf("calibration helper: %w", err)
	}
	return nil
}
