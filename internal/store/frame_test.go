package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"math/rand/v2"
	"reflect"
	"testing"
)

// FuzzRecordFrame holds the record frame codec to a round trip and to its
// reject set. Every record Append takes — play, batch or close, with
// negative rounds, empty and nil convicted lists, up to 127 plays —
// encodes after any prefix to one frame that reads back whole, whose
// checksum is hash/crc32's CRC-32C of its type and body and whose round is
// the record's last, and that decodes to the same record. Every strict
// prefix of the frame is no frame (a torn tail), and flipping a byte of
// its type, checksum or body (each one in frames up to 128 bytes, 128
// spread over longer ones) fails the checksum. Arbitrary bytes read as
// a frame never panic, and a record decoded from them re-encodes to a
// frame that decodes to it again.
func FuzzRecordFrame(f *testing.F) {
	f.Add(uint8(0), 4, []byte("a"), 1, []byte{0, 2}, false, uint8(0), "", []byte{})
	f.Add(uint8(1), 0, []byte{}, 0, []byte{}, true, uint8(64), "", []byte{1, 4, 0x80})
	f.Add(uint8(1), -7, []byte{0xff}, -1, []byte{0xff}, false, uint8(3), "", []byte("\x06\x05\x00\x00\x00\x00\x01"))
	f.Add(uint8(2), 0, []byte(nil), 0, []byte(nil), true, uint8(0), "<a href='x'>&amp;</a>", []byte(nil))
	f.Add(uint8(2), 1<<40, []byte("h"), 2, []byte{1}, false, uint8(1), "\x00\"\\\xff", magic)
	f.Fuzz(func(t *testing.T, kind uint8, round int, seed []byte, fouls int, convicted []byte,
		empty bool, plays uint8, digest string, raw []byte) {
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
		hash := func(i int) string {
			sum := sha256.Sum256(append([]byte{byte(i)}, seed...))
			return hex.EncodeToString(sum[:])
		}
		var rec Record
		switch kind % 3 {
		case 0:
			rec = Record{Type: RecordPlay, Round: round, Hash: hash(0), Fouls: fouls, Convicted: ints(0)}
		case 1:
			rec.Type = RecordBatch
			for i := 0; i < int(plays)&127; i++ {
				bp := BatchPlay{Round: round + i, Hash: hash(i), Fouls: fouls ^ i}
				if i%2 == 1 {
					bp.Convicted = ints(i)
				}
				rec.Plays = append(rec.Plays, bp)
			}
		default:
			rec = Record{Type: RecordClose, Digest: digest}
		}
		if err := checkRecord(&rec); err != nil {
			t.Fatal(err)
		}

		for _, prefix := range [][]byte{nil, magic} {
			buf := appendRecordFrame(bytes.Clone(prefix), &rec)
			if !bytes.Equal(buf[:len(prefix)], prefix) {
				t.Fatal("the encoder overwrote its prefix")
			}
			frame := buf[len(prefix):]
			fr, ok := readFrame(frame, 0, true)
			if !ok || fr.end != len(frame) || fr.round != rec.LastRound() {
				t.Fatalf("%+v encodes to %x, which reads back as %+v (ok %v)", rec, frame, fr, ok)
			}
			sum := binary.LittleEndian.Uint32(frame[len(frame)-len(fr.body)-4:])
			if want := crc32.Update(crc32.Checksum([]byte{fr.typ}, crcTable), crcTable, fr.body); sum != want {
				t.Fatalf("frame checksum %08x, CRC-32C %08x", sum, want)
			}
			got, ok := decodeRecord(&fr)
			if !ok || !reflect.DeepEqual(normalized(got), normalized(rec)) {
				t.Fatalf("%+v decodes as %+v (ok %v)", rec, got, ok)
			}
			for k := 0; k < len(frame); k++ {
				if _, ok := readFrame(frame[:k], 0, true); ok {
					t.Fatalf("the %d-byte prefix of a %d-byte frame reads as a frame", k, len(frame))
				}
			}
			for k := len(frame) - len(fr.body) - 5; k < len(frame); k += 1 + len(frame)/128 {
				frame[k] ^= 0x5a
				if _, ok := readFrame(frame, 0, true); ok {
					t.Fatalf("byte %d of %x flipped, yet the frame reads", k, frame)
				}
				frame[k] ^= 0x5a
			}
		}

		fr, ok := readFrame(raw, 0, true)
		if !ok {
			return
		}
		got, ok := decodeRecord(&fr)
		if !ok {
			return
		}
		again, ok := readFrame(appendRecordFrame(nil, &got), 0, true)
		if !ok {
			t.Fatalf("%+v, decoded from %x, re-encodes to no frame", got, raw)
		}
		if back, ok := decodeRecord(&again); !ok || !reflect.DeepEqual(back, got) {
			t.Fatalf("%+v re-encodes and decodes as %+v (ok %v)", got, back, ok)
		}
	})
}

// normalized is rec as a frame carries it: a nil list for an empty one.
func normalized(rec Record) Record {
	if len(rec.Convicted) == 0 {
		rec.Convicted = nil
	}
	if len(rec.Plays) == 0 {
		rec.Plays = nil
	}
	rec.Plays = append([]BatchPlay(nil), rec.Plays...)
	for i := range rec.Plays {
		if len(rec.Plays[i].Convicted) == 0 {
			rec.Plays[i].Convicted = nil
		}
	}
	return rec
}

// TestChecksumIsCRC32C holds appendFrame's slicing-by-8 checksum to
// hash/crc32's CRC-32C at every length from 0 to 1,100 bytes (so every
// alignment of the eight-byte steps and the byte tail), and for chained
// calls split at random points, as appendFrame chains the type byte and
// the body.
func TestChecksumIsCRC32C(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	data := make([]byte, 1100)
	for i := range data {
		data[i] = byte(rng.Uint32())
	}
	for n := 0; n <= len(data); n++ {
		p := data[:n]
		want := crc32.Checksum(p, crcTable)
		if got := checksum(0, p); got != want {
			t.Fatalf("length %d: checksum %08x, CRC-32C %08x", n, got, want)
		}
		crc := uint32(0)
		for rest := p; len(rest) > 0; {
			k := rng.IntN(len(rest) + 1)
			crc, rest = checksum(crc, rest[:k]), rest[k:]
		}
		if crc != want {
			t.Fatalf("length %d split at random points: checksum %08x, CRC-32C %08x", n, crc, want)
		}
	}
}
