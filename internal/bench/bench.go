// Package bench reports the build identity stamped on run and benchmark
// artifacts: the recorder header, the checkpoint meta line and the
// cmd/hetarchbench result header all carry the git revision it reads.
package bench

import "runtime/debug"

// VCSRevision reports the git revision baked into the binary by the go
// tool (empty for non-VCS builds, e.g. plain `go test`).
func VCSRevision() (rev string, dirty bool) {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "", false
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	return rev, dirty
}
