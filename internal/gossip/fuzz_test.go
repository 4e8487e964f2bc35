package gossip

import (
	"bytes"
	"encoding/binary"
	"math"
	"net/netip"
	"reflect"
	"slices"
	"testing"
	"time"

	"riptide/internal/core"
)

// FuzzDecodeDigest: the digest decoder must reject or accept arbitrary
// bytes without panicking, and whatever it accepts must re-encode.
func FuzzDecodeDigest(f *testing.F) {
	f.Add([]byte(`{"version":1,"source":"host","instance":"inst","tableVersion":9,"count":5,"buckets":[` +
		`0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31,` +
		`32,33,34,35,36,37,38,39,40,41,42,43,44,45,46,47,48,49,50,51,52,53,54,55,56,57,58,59,60,61,62,18446744073709551615]}`))
	f.Add([]byte(`{"version": 1, "buckets": []}`))
	f.Add([]byte(`{"version": 1,`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeDigest(data)
		if err != nil {
			return
		}
		if len(d.Buckets) != digestBuckets {
			t.Fatalf("decoded digest with %d buckets", len(d.Buckets))
		}
		if _, err := EncodeDigest(d); err != nil {
			t.Fatalf("accepted digest does not re-encode: %v", err)
		}
	})
}

// FuzzDecodeDelta: same contract for the delta decoder, held tighter, since
// the wire is canonical: whatever it accepts re-encodes to the very same
// bytes. The seeds are bodies AppendDelta wrote, the same bodies cut short,
// padded, or with one header or entry field bent, and the JSON bodies of wire
// version 1, which must all fail.
//
// The merge sink rides the same target: DecodeDeltaAppend into nil, into a
// poisoned slice with spare capacity and into one at exact capacity must each
// hold ToCore(DecodeDelta(data).Entries) past what the slice already held,
// accept and fail exactly where DecodeDelta does, and leave the held elements
// alone — a failure half-way through the entries included.
func FuzzDecodeDelta(f *testing.F) {
	ipv6 := []core.SnapshotEntry{
		{Prefix: netip.MustParsePrefix("2001:db8::1/128"), Window: 20, Samples: 3, Age: time.Second, Version: 9},
		{Prefix: netip.MustParsePrefix("2001:db8::2/128"), Window: 21, Samples: 3, Age: time.Second, Version: 9},
		{Prefix: netip.MustParsePrefix("::ffff:10.0.0.1/120"), Window: 22, Version: 8},
	}
	for _, seed := range []struct {
		d       Delta
		entries []core.SnapshotEntry
	}{
		{Delta{Version: WireVersion, Source: "host", Instance: "inst", TableVersion: 9, Since: 3}, ToCore(entriesFuzz(5))},
		{Delta{Version: WireVersion, Instance: "i", TableVersion: 3, Full: true}, codecEntries()},
		{Delta{Version: WireVersion, TableVersion: 7, Since: 2}, ipv6},
		{Delta{Version: WireVersion}, nil},
	} {
		body, err := AppendDelta(nil, seed.d, seed.entries)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		for _, cut := range []int{1, 4, 5, 6, len(body) / 2, len(body) - 1} {
			f.Add(body[:min(cut, len(body))])
		}
		f.Add(append(slices.Clone(body), 0)) // a byte past the last entry
		f.Add(append([]byte(" "), body...))  // a byte before the magic
		for _, bend := range []struct {
			at  int
			val byte
		}{
			{4, WireVersion + 1},  // unknown wire version
			{4, 1},                // the JSON wire's version in a binary header
			{5, 2},                // an unknown flag
			{len(body) - 1, 0x80}, // the last varint left open
		} {
			bent := slices.Clone(body)
			bent[bend.at] = bend.val
			f.Add(bent)
		}
	}
	// Headers that claim more entries than follow: the decoder must refuse
	// them before it sizes anything.
	head := []byte(magic + "\x02\x00\x00\x00\x09\x00")
	for _, count := range []uint64{1, 1 << 20, 1 << 62, math.MaxUint64} {
		f.Add(binary.AppendUvarint(slices.Clone(head), count))
	}
	// Canonical varints only: an overlong zero, an overlong table version,
	// and an 11-byte varint.
	f.Add([]byte(magic + "\x82\x00\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte(magic + "\x02\x00\x00\x00\x89\x00\x00\x00"))
	f.Add([]byte(magic + "\x02\x00\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01\x00\x00"))
	// Entry tags: every family and flag bit once, and an IPv4 address delta
	// past 32 bits.
	for _, entry := range []string{
		"\x00\x00\x00\x00\x00", "\x04\x00\x00\x00\x00", "\x08\x00\x00\x00\x00", "\x03\x00\x00\x00\x00\x00",
		"\x10\x00\x00\x00\x00", "\x09\x02\x02\x00\x02\x00", "\x01\x20\x02\x02\x00\x02\x00", "\x01\x1f\x02\x02\x00\x02\x00",
		"\x0a\x00\x02\x14\x00\x00\x00", "\x02\x80\x00\x00\x14\x00\x00\x00", "\x09\xff\xff\xff\xff\x1f\x14\x00\x00\x00",
	} {
		f.Add([]byte(magic + "\x02\x00\x00\x00\x09\x00\x01" + entry))
	}
	// The JSON wire of version 1, which a peer that has not been upgraded
	// sends: never decoded, whatever its form.
	for _, seed := range []string{
		`{"version":1,"tableVersion":0,"entries":null}`,
		`{"version":1,"tableVersion":9,"since":3,"entries":[{"prefix":"10.0.0.1/32","window":10,"samples":1,"ageNanos":0}]}` + "\n",
		` {"version":2,"tableVersion":0,"entries":[]}`,
		`{"version": 1,`,
		`0`,
		``,
		`RPT`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeDelta(data)
		checkMergeSink(t, data, d, err)
		if err != nil {
			return
		}
		again, err := EncodeDelta(d)
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("accepted delta re-encodes to other bytes (%v):\n got %x\nwant %x", err, again, data)
		}
	})
}

// checkMergeSink holds DecodeDeltaAppend to DecodeDelta's result for the
// same bytes (d, err), over the three shapes of destination.
func checkMergeSink(t *testing.T, data []byte, d Delta, err error) {
	poison := []core.SnapshotEntry{
		{Prefix: netip.MustParsePrefix("2001:db8::/32"), Window: 91, Samples: 92, Age: 93, Quarantined: true, Version: 94},
		{Prefix: netip.MustParsePrefix("2001:db8:1::7/128"), Window: 95, Samples: 96, Age: 97, Version: 98},
	}
	want := ToCore(d.Entries) // nothing on error: DecodeDelta returns the zero Delta
	for _, dst := range [][]core.SnapshotEntry{
		nil,
		append(make([]core.SnapshotEntry, 0, 2+len(want)+8), poison...),
		append(make([]core.SnapshotEntry, 0, 2), poison...),
	} {
		// Poison the spare capacity too: the sink must write every field.
		spare := dst[len(dst):cap(dst)]
		for i := range spare {
			spare[i] = poison[i%2]
		}
		held := len(dst)
		got, merged, gotErr := DecodeDeltaAppend(dst, data)
		if (gotErr != nil) != (err != nil) {
			t.Fatalf("DecodeDeltaAppend(%d held) err=%v, DecodeDelta err=%v: %q", held, gotErr, err, data)
		}
		for i := range merged[:held] {
			if merged[i] != poison[i] {
				t.Fatalf("held element %d rewritten: %+v", i, merged[i])
			}
		}
		if merged = merged[held:]; len(merged) != len(want) {
			t.Fatalf("merge sink (%d held) appended %d entries, ToCore(DecodeDelta) has %d: %q", held, len(merged), len(want), data)
		}
		for i := range want {
			if merged[i] != want[i] {
				t.Fatalf("merge sink (%d held) entry %d is %+v, ToCore(DecodeDelta) says %+v: %q", held, i, merged[i], want[i], data)
			}
		}
		d.Entries = nil
		if !reflect.DeepEqual(got, d) {
			t.Fatalf("DecodeDeltaAppend returned %+v, want %+v", got, d)
		}
	}
}

func entriesFuzz(n int) []Entry {
	out := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Entry{
			Prefix:  "10.0.0.1/32",
			Window:  10 + i,
			Samples: uint64(i),
		})
	}
	return out
}
