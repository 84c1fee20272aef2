package checkpoint

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"hetarch/internal/mc"
)

// checkCanonical fails unless appendShard writes json.Marshal's bytes for
// r plus a newline and parseShard reads them back as r.
func checkCanonical(t *testing.T, r shardRecord) {
	t.Helper()
	want, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	line := appendShard(nil, r)
	if !bytes.Equal(line, append(want, '\n')) {
		t.Fatalf("appendShard wrote %s, json.Marshal %s", line, want)
	}
	got, ok := parseShard(line[:len(line)-1])
	if !ok || got != r {
		t.Fatalf("parseShard(%s) = %+v, %v; want %+v", line, got, ok, r)
	}
}

// checkParsed fails if parseShard accepts a line that is not the
// canonical line of the record it returns, or that json.Unmarshal rejects
// or reads as a different record.
func checkParsed(t *testing.T, line []byte) {
	t.Helper()
	got, ok := parseShard(line)
	if !ok {
		return
	}
	if canon := appendShard(nil, got); !bytes.Equal(canon[:len(canon)-1], line) {
		t.Fatalf("parseShard accepted %q, which is not canonical %s", line, canon)
	}
	var want shardRecord
	if err := json.Unmarshal(line, &want); err != nil {
		t.Fatalf("parseShard accepted %q, json.Unmarshal rejects it: %v", line, err)
	}
	if got != want {
		t.Fatalf("parseShard(%q) = %+v, json.Unmarshal %+v", line, got, want)
	}
}

func TestShardCodecEdgeValues(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 9, 10, math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
		1_000_000_000_000_000_000, -1_000_000_000_000_000_000, 7191089600892374487, -2772681139146566043} {
		checkCanonical(t, shardRecord{Type: "shard", Run: int(v), RunShots: int(v), RunSeed: v, ShardSize: int(v),
			Shard: int(v), ShardSeed: v, Shots: v, Errors: v})
		checkCanonical(t, shardRecord{Type: "shard", Run: 3, RunShots: 10_000, RunSeed: 7, ShardSize: 256,
			Shard: 39, ShardSeed: v, Shots: 16, Errors: 2})
	}
}

// TestShardCodecFallsBack: a shard line parseShard does not take goes
// through json.Unmarshal, which loads it as before or refuses the file.
func TestShardCodecFallsBack(t *testing.T) {
	const canonical = `{"type":"shard","run":1,"run_shots":10240,"run_seed":7,"shard_size":256,"shard":17,"shard_seed":-2772681139146566043,"shots":256,"errors":55}`
	for _, tc := range []struct {
		line string
		want int64 // the loaded shard's error count; -1: load fails
	}{
		{strings.Replace(canonical, `"errors":55`, `"errors":-0`, 1), 0},
		{strings.Replace(canonical, `"errors":55`, `"errors":055`, 1), -1},
		{strings.Replace(canonical, `"errors":55`, `"errors":+55`, 1), -1},
		{strings.Replace(canonical, `"errors":55`, `"errors":-055`, 1), -1},
		{strings.Replace(canonical, `"errors":55`, `"errors":55.0`, 1), -1},
		{strings.Replace(canonical, `"errors":55`, `"errors":5e1`, 1), -1},
		{strings.Replace(canonical, `"errors":55`, `"errors":10000000000000000000`, 1), -1}, // 20 digits
		{strings.Replace(canonical, `"errors":55`, `"errors":18446744073709551617`, 1), -1}, // 2^64+1 wraps to 1
		{strings.Replace(canonical, `"errors":55`, `"errors":9223372036854775808`, 1), -1},
		{strings.Replace(canonical, `"errors":55`, `"errors":-9223372036854775809`, 1), -1},
		{strings.Replace(canonical, `"errors":55`, `"errors":"55"`, 1), -1},
		{strings.Replace(canonical, `"errors":55`, `"errors": 55`, 1), 55},
		{strings.Replace(canonical, `"errors":55`, `"ERRORS":56`, 1), 56},
		{strings.Replace(canonical, `"errors":55`, `"errors":55,"errors":57`, 1), 57},
		{strings.Replace(canonical, `"shots":256,"errors":55`, `"errors":58,"shots":256`, 1), 58},
		{canonical + " ", 55},
		{canonical + "}", -1},
	} {
		if _, ok := parseShard([]byte(tc.line)); ok {
			t.Errorf("parseShard took non-canonical %s", tc.line)
		}
		f := &File{meta: meta(), done: map[entryKey]entryVal{}}
		header, err := json.Marshal(f.meta)
		if err != nil {
			t.Fatal(err)
		}
		err = f.load("ck.jsonl", [][]byte{header, []byte(tc.line)})
		if tc.want < 0 {
			if err == nil {
				t.Errorf("load took %s", tc.line)
			}
			continue
		}
		key := mc.RunKey{Run: 1, Shots: 10240, Seed: 7, ShardSize: 256}
		tally, ok := f.Lookup(key, mc.Shard{Index: 17, Seed: -2772681139146566043})
		if err != nil || !ok || tally != (mc.Tally{Shots: 256, Errors: tc.want}) {
			t.Errorf("load %s: tally %+v, found %v, err %v; want %d errors", tc.line, tally, ok, err, tc.want)
		}
	}
}

// FuzzShardRecord checks the hand-written codec against encoding/json:
// for the fuzzed field values, appendShard writes json.Marshal's line and
// parseShard reads it back; for the fuzzed bytes, alone and spliced into
// that line, parseShard takes only canonical lines, which json.Unmarshal
// reads the same.
func FuzzShardRecord(f *testing.F) {
	add := func(data []byte, r shardRecord) {
		f.Add(data, int64(r.Run), int64(r.RunShots), r.RunSeed, int64(r.ShardSize), int64(r.Shard), r.ShardSeed, r.Shots, r.Errors)
	}
	golden := shardRecord{Run: 1, RunShots: 10240, RunSeed: 1 << 62, ShardSize: 256, Shard: 17, ShardSeed: -2772681139146566043, Shots: 256, Errors: 55}
	add([]byte(`{ "shard": 17, "type": "shard", "shots": 256, "errors": 55, "run": 1, "run_shots": 10240, "shard_seed": -2772681139146566043, "run_seed": 4611686018427387904, "shard_size": 256 }`), golden)
	// Edits that make the last integer non-canonical; n is the length of
	// the line, which ends in that integer and '}'.
	zero := shardRecord{}
	n := byte(len(appendShard(nil, zero)) - 1)
	add([]byte{n - 2, 1, '-', '0'}, zero)                          // -0
	add([]byte{n - 2, 0, '0'}, zero)                               // 00
	add([]byte{n, 0, '}'}, zero)                                   // trailing '}'
	add(append([]byte{n - 2, 1}, "18446744073709551617"...), zero) // 20 digits, 2^64+1
	extreme := shardRecord{ShardSeed: math.MinInt64, Errors: math.MaxInt64}
	n = byte(len(appendShard(nil, extreme)) - 1)
	add([]byte{n - 2, 1, '8'}, extreme) // MaxInt64 + 1
	f.Fuzz(func(t *testing.T, data []byte, run, runShots, runSeed, shardSize, shard, shardSeed, shots, errs int64) {
		r := shardRecord{Type: "shard", Run: int(run), RunShots: int(runShots), RunSeed: runSeed, ShardSize: int(shardSize),
			Shard: int(shard), ShardSeed: shardSeed, Shots: shots, Errors: errs}
		if int64(r.Run) != run || int64(r.RunShots) != runShots || int64(r.ShardSize) != shardSize || int64(r.Shard) != shard {
			t.Skip("field does not fit in int")
		}
		checkCanonical(t, r)
		checkParsed(t, data)
		if len(data) < 2 {
			return
		}
		// Replace data[1]%4 bytes of the canonical line, at an offset
		// data[0] picks, with the rest of data, so most edits land inside
		// a line that is otherwise canonical.
		line := appendShard(nil, r)
		line = line[:len(line)-1]
		at := int(data[0]) % (len(line) + 1)
		end := min(at+int(data[1])%4, len(line))
		edited := append(append(line[:at:at], data[2:]...), line[end:]...)
		checkParsed(t, edited)
	})
}
