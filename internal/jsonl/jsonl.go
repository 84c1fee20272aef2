// Package jsonl owns the crash policy of every file hetarch keeps across
// processes: the append-only JSONL logs (run ledger, mc checkpoint, flight
// recorder) and the files replaced whole (finalized recorder artifacts, a
// ledger rewritten by gc, a checkpoint cut back to its last whole record).
//
// The policy:
//
//   - A record is one JSON value plus '\n', written by a single write(2)
//     on an O_APPEND descriptor, so handles appending from several
//     goroutines or processes interleave whole lines. AppendLine is that
//     write for a line the caller encoded itself; Append marshals a value
//     and writes it through AppendLine.
//   - A process killed mid-append leaves at most one partial last line,
//     the torn tail. Split drops and reports it; a last line that is
//     complete JSON and lost only its newline is kept as a record.
//   - Open heals the boundary: when the file does not end in '\n' it
//     appends one, so the next record starts on a fresh line. A torn tail
//     thereby becomes an interior line, which each reader skips or rejects
//     by its own rules.
//   - Append does not fsync. A caller whose records must survive a power
//     loss calls Sync.
//   - WriteFile replaces a whole file through a synced temp file renamed
//     over it, so a reader or a crash sees the old content or the new,
//     never a mix.
package jsonl

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
)

// Split returns the non-empty lines of a JSONL file's contents, without
// their newlines. A last line lacking its newline is a record when it is
// valid JSON; otherwise it is the torn tail of an interrupted append,
// returned as torn (a suffix of data) and not among lines.
func Split(data []byte) (lines [][]byte, torn []byte) {
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			if !json.Valid(data) {
				return lines, data
			}
			return append(lines, data), nil
		}
		if nl > 0 {
			lines = append(lines, data[:nl])
		}
		data = data[nl+1:]
	}
	return lines, nil
}

var errNotLine = errors.New("jsonl: AppendLine takes exactly one non-empty, newline-terminated line")

// Appender appends records to a JSONL file. It is not safe for concurrent
// use; its owner serializes the calls.
type Appender struct {
	f   *os.File
	err error // sticky: the first failed write
}

// Open opens path for appending, creating it if absent. When the file is
// non-empty and does not end in '\n' — a torn tail, or a complete record
// that lost its newline — Open first appends one; healed reports that it
// did.
func Open(path string) (a *Appender, healed bool, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, false, err
	}
	if healed, err = heal(f); err != nil {
		f.Close()
		return nil, false, err
	}
	return &Appender{f: f}, healed, nil
}

func heal(f *os.File) (bool, error) {
	st, err := f.Stat()
	if err != nil || st.Size() == 0 {
		return false, err
	}
	var last [1]byte
	if _, err := f.ReadAt(last[:], st.Size()-1); err != nil {
		return false, err
	}
	if last[0] == '\n' {
		return false, nil
	}
	_, err = f.Write([]byte{'\n'})
	return true, err
}

// Append writes v, marshaled by json.Marshal, as one line through
// AppendLine.
func (a *Appender) Append(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return a.AppendLine(append(line, '\n'))
}

// AppendLine writes line, which must be exactly one non-empty line ending
// in its only '\n', with a single write(2), and does not fsync. After a
// failed write every later AppendLine and Append returns the same error:
// the failed write may have left a partial line, which only a fresh Open
// heals. A refused line writes nothing and is not sticky.
func (a *Appender) AppendLine(line []byte) error {
	if a.err != nil {
		return a.err
	}
	if n := len(line); n < 2 || line[n-1] != '\n' || bytes.IndexByte(line[:n-1], '\n') >= 0 {
		return errNotLine
	}
	if _, err := a.f.Write(line); err != nil {
		a.err = err
		return err
	}
	return nil
}

// Sync commits the records appended so far to stable storage.
func (a *Appender) Sync() error { return a.f.Sync() }

// Close closes the file.
func (a *Appender) Close() error { return a.f.Close() }

// WriteFile replaces path with data: it writes a temp file beside path,
// fsyncs it and renames it over path. On failure the temp file is removed
// and path keeps its old content.
func WriteFile(path string, data []byte) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			os.Remove(f.Name())
		}
	}()
	_, err = f.Write(data)
	if err == nil {
		// CreateTemp makes the file 0600; give it the mode Open creates.
		err = f.Chmod(0o644)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	return err
}
