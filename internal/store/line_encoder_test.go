package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"
)

// legacyLine is the session-file line encoder as it first shipped:
// json.Marshal, then "%08x %s\n". Every session file on disk was written
// by it, so it is the reference appendLine must match byte for byte.
func legacyLine(v any) ([]byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return fmt.Appendf(nil, "%08x %s\n", crc32.Checksum(payload, crcTable), payload), nil
}

// FuzzLineEncoder holds appendLine to legacyLine for arbitrary records —
// passed by value and by pointer, as the append path encodes them — and
// for spec and snapshot head lines, each appended after a prefix. Strings
// and blobs are arbitrary bytes, so the seeds cover what JSON escapes:
// invalid UTF-8, the HTML characters, U+2028; and the shapes: nil and
// empty convicted lists, negative rounds, a 64-play batch.
func FuzzLineEncoder(f *testing.F) {
	f.Add(RecordPlay, 4, strings.Repeat("ab", 32), 1, []byte{0, 2}, false, uint8(0), "", []byte(`{"game":"pd"}`), 4)
	f.Add(RecordBatch, 0, "h", 0, []byte{}, true, uint8(64), "", []byte(nil), 0)
	f.Add(RecordBatch, -7, "h\xff\xfe", -1, []byte{0xff}, false, uint8(3), "", []byte("\xc3\x28"), -1)
	f.Add(RecordClose, 0, "", 0, []byte(nil), true, uint8(0), "<a href='x'>&amp;</a>", []byte("<>&"), 9)
	f.Add("", 1, "  \x00\"\\", 2, []byte{1}, false, uint8(1), " ", []byte(" "), 1<<40)
	f.Fuzz(func(t *testing.T, typ string, round int, hash string, fouls int, convicted []byte,
		empty bool, plays uint8, digest string, blob []byte, rounds int) {
		ints := func(salt int) []int {
			if len(convicted) == 0 {
				if empty {
					return []int{}
				}
				return nil
			}
			out := make([]int, len(convicted))
			for i, b := range convicted {
				out[i] = int(int8(b)) + salt
			}
			return out
		}
		rec := Record{Type: typ, Round: round, Hash: hash, Fouls: fouls, Convicted: ints(0), Digest: digest}
		for i := 0; i < int(plays)&127; i++ {
			bp := BatchPlay{Round: round + i, Hash: hash, Fouls: fouls ^ i}
			if i%2 == 1 {
				bp.Convicted = ints(i)
			}
			rec.Plays = append(rec.Plays, bp)
		}
		prefix := []byte("00000000 {}\n")
		for _, v := range []any{
			rec,
			&rec,
			fileLine{Record: Record{Type: lineSpec}, Spec: blob},
			fileLine{Record: Record{Type: lineSnap}, Rounds: rounds, Payload: blob},
		} {
			want, err := legacyLine(v)
			if err != nil {
				t.Fatal(err)
			}
			got, err := appendLine(nil, v)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("appendLine(%#v) = %q, %v\nwant %q", v, got, err, want)
			}
			got, err = appendLine(bytes.Clone(prefix), v)
			if err != nil || !bytes.Equal(got, append(bytes.Clone(prefix), want...)) {
				t.Fatalf("appendLine after a prefix = %q, %v\nwant %q", got, err, want)
			}
		}
	})
}
