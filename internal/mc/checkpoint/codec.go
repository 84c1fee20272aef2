package checkpoint

import "strconv"

// A canonical shard line is what json.Marshal writes for a shardRecord:
// its fields in struct order, each integer in shortest decimal form, no
// spaces. Record writes only canonical lines, with appendShard; load reads
// them with parseShard and hands every other line to json.Unmarshal, so
// neither direction reflects over the struct per shard.

// shardKeys precede the eight integer fields of a canonical shard line, in
// field order.
var shardKeys = [...]string{
	`{"type":"shard","run":`,
	`,"run_shots":`,
	`,"run_seed":`,
	`,"shard_size":`,
	`,"shard":`,
	`,"shard_seed":`,
	`,"shots":`,
	`,"errors":`,
}

// appendShard appends r's canonical line and its newline to b. r.Type is
// not read: the line always says "shard".
func appendShard(b []byte, r shardRecord) []byte {
	fields := [len(shardKeys)]int64{int64(r.Run), int64(r.RunShots), r.RunSeed, int64(r.ShardSize),
		int64(r.Shard), r.ShardSeed, r.Shots, r.Errors}
	for i, key := range shardKeys {
		b = append(b, key...)
		b = strconv.AppendInt(b, fields[i], 10)
	}
	return append(b, "}\n"...)
}

// parseShard parses a canonical shard line without its newline. It
// reports false for any other line, including valid JSON that spells the
// same record differently; such a line must go through json.Unmarshal.
func parseShard(line []byte) (shardRecord, bool) {
	var fields [len(shardKeys)]int64
	for i, key := range shardKeys {
		if len(line) < len(key) || string(line[:len(key)]) != key {
			return shardRecord{}, false
		}
		var ok bool
		if fields[i], line, ok = parseInt(line[len(key):]); !ok {
			return shardRecord{}, false
		}
	}
	if string(line) != "}" {
		return shardRecord{}, false
	}
	r := shardRecord{Type: "shard", Run: int(fields[0]), RunShots: int(fields[1]), RunSeed: fields[2],
		ShardSize: int(fields[3]), Shard: int(fields[4]), ShardSeed: fields[5], Shots: fields[6], Errors: fields[7]}
	// Where int has 32 bits, json.Unmarshal rejects what does not fit.
	if int64(r.Run) != fields[0] || int64(r.RunShots) != fields[1] || int64(r.ShardSize) != fields[3] || int64(r.Shard) != fields[4] {
		return shardRecord{}, false
	}
	return r, true
}

// parseInt reads the canonical decimal int64 at the start of b: an
// optional '-' and then either 0 alone or a nonzero digit followed by at
// most 18 more, in range. It rejects "-0", leading zeros, a '+' and
// anything that overflows.
func parseInt(b []byte) (n int64, rest []byte, ok bool) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	var u uint64 // 19 digits cannot overflow it
	i := 0
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		if i == 19 {
			return 0, nil, false
		}
		u = u*10 + uint64(b[i]-'0')
	}
	switch {
	case i == 0, b[0] == '0' && (i > 1 || neg):
		return 0, nil, false
	case u > 1<<63 || u == 1<<63 && !neg:
		return 0, nil, false
	}
	n = int64(u)
	if neg {
		n = -n
	}
	return n, b[i:], true
}
