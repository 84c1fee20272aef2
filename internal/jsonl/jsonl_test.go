package jsonl

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

const (
	recA = `{"type":"a","n":1}`
	recB = `{"type":"b","n":2}`
)

// TestCrashStates runs every file state a crash or an outside edit can
// leave through Split, then through Open → Append → Split: the result must
// hold every intact record plus the new one, with no torn tail.
func TestCrashStates(t *testing.T) {
	cases := []struct {
		name    string
		content *string // nil: the file does not exist
		lines   []string
		torn    string
	}{
		{name: "missing"},
		{name: "empty", content: ptr("")},
		{name: "newline-terminated", content: ptr(recA + "\n" + recB + "\n"), lines: []string{recA, recB}},
		{name: "valid unterminated tail", content: ptr(recA + "\n" + recB), lines: []string{recA, recB}},
		{name: "torn tail", content: ptr(recA + "\n" + recB[:7]), lines: []string{recA}, torn: recB[:7]},
		{name: "blank lines", content: ptr("\n" + recA + "\n\n" + recB + "\n\n"), lines: []string{recA, recB}},
	}
	newRec := map[string]any{"type": "new", "n": 3}
	const newLine = `{"n":3,"type":"new"}`
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log.jsonl")
			var data []byte
			if tc.content != nil {
				data = []byte(*tc.content)
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			lines, torn := Split(data)
			if got := strs(lines); !reflect.DeepEqual(got, tc.lines) {
				t.Fatalf("Split lines = %q, want %q", got, tc.lines)
			}
			if string(torn) != tc.torn {
				t.Fatalf("Split torn = %q, want %q", torn, tc.torn)
			}
			if !strings.HasSuffix(string(data), string(torn)) {
				t.Fatalf("torn %q is not a suffix of the data", torn)
			}

			a, healed, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			wantHealed := len(data) > 0 && data[len(data)-1] != '\n'
			if healed != wantHealed {
				t.Fatalf("Open healed = %v, want %v", healed, wantHealed)
			}
			if err := a.Append(newRec); err != nil {
				t.Fatal(err)
			}
			if err := a.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}

			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			lines, torn = Split(after)
			// A healed torn tail is an interior line now; readers skip or
			// reject it by their own rules.
			want := append([]string{}, tc.lines...)
			if tc.torn != "" {
				want = append(want, tc.torn)
			}
			want = append(want, newLine)
			if got := strs(lines); !reflect.DeepEqual(got, want) || torn != nil {
				t.Fatalf("after Open+Append: lines %q torn %q, want lines %q and no torn tail", got, torn, want)
			}
		})
	}
}

// TestConcurrentHandlesTearNoLine: independently opened handles on one
// file — separate processes, in effect — append at once; every line must
// arrive whole, exactly once.
func TestConcurrentHandlesTearNoLine(t *testing.T) {
	const handles, perHandle = 4, 50
	path := filepath.Join(t.TempDir(), "log.jsonl")
	pad := strings.Repeat("x", 300)
	var wg sync.WaitGroup
	for h := 0; h < handles; h++ {
		a, _, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			defer a.Close()
			for i := 0; i < perHandle; i++ {
				if err := a.Append(map[string]string{"id": fmt.Sprintf("%d-%d", h, i), "pad": pad}); err != nil {
					t.Errorf("handle %d append %d: %v", h, i, err)
					return
				}
			}
		}(h)
	}
	wg.Wait()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines, torn := Split(data)
	if torn != nil || len(lines) != handles*perHandle {
		t.Fatalf("got %d lines, torn %q; want %d whole lines", len(lines), torn, handles*perHandle)
	}
	seen := map[string]bool{}
	for _, raw := range lines {
		var rec map[string]string
		if err := json.Unmarshal(raw, &rec); err != nil || rec["pad"] != pad {
			t.Fatalf("torn line %q (%v)", raw, err)
		}
		if seen[rec["id"]] {
			t.Fatalf("duplicate record %s", rec["id"])
		}
		seen[rec["id"]] = true
	}
}

// TestAppendLine: AppendLine writes exactly one newline-terminated line
// and refuses anything else without writing; after a failed write every
// later AppendLine and Append returns that write's error.
func TestAppendLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	a, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "\n", recA, recA + "\n" + recB + "\n", "\n" + recA + "\n"} {
		if err := a.AppendLine([]byte(bad)); err == nil {
			t.Errorf("AppendLine(%q) succeeded", bad)
		}
	}
	if err := a.AppendLine([]byte(recA + "\n")); err != nil {
		t.Fatal(err)
	}
	if err := a.Append(map[string]any{"n": 2, "type": "b"}); err != nil {
		t.Fatal(err)
	}
	want := recA + "\n" + `{"n":2,"type":"b"}` + "\n"
	if got, err := os.ReadFile(path); err != nil || string(got) != want {
		t.Fatalf("file holds %q (%v), want %q", got, err, want)
	}

	a.f.Close() // the next write fails
	first := a.AppendLine([]byte(recA + "\n"))
	if first == nil {
		t.Fatal("AppendLine on a closed file succeeded")
	}
	if err := a.Append(map[string]int{"n": 3}); err != first {
		t.Fatalf("Append after a failed write returned %v, want the sticky %v", err, first)
	}
	if err := a.AppendLine([]byte(recB + "\n")); err != first {
		t.Fatalf("AppendLine after a failed write returned %v, want the sticky %v", err, first)
	}
}

func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := os.WriteFile(path, []byte("old\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, []byte("new\n")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new\n" {
		t.Fatalf("content %q, want %q", got, "new\n")
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o644 {
		t.Fatalf("mode %v (%v), want 0644", fi.Mode().Perm(), err)
	}
	assertOnly(t, dir, "out.json")

	// A target that cannot be replaced (a directory) fails, keeps its old
	// content and leaves no temp file behind.
	target := filepath.Join(dir, "target")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(target, "kept"), []byte("k"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(target, []byte("new\n")); err == nil {
		t.Fatal("WriteFile over a directory succeeded")
	}
	if got, err := os.ReadFile(filepath.Join(target, "kept")); err != nil || string(got) != "k" {
		t.Fatalf("old content lost: %q (%v)", got, err)
	}
	assertOnly(t, dir, "out.json", "target")
}

// assertOnly fails unless dir holds exactly the named entries.
func assertOnly(t *testing.T, dir string, names ...string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range ents {
		got = append(got, e.Name())
	}
	if !reflect.DeepEqual(got, names) {
		t.Fatalf("directory holds %q, want %q (temp file left behind?)", got, names)
	}
}

func ptr(s string) *string { return &s }

func strs(lines [][]byte) []string {
	var out []string
	for _, l := range lines {
		out = append(out, string(l))
	}
	return out
}
