package gossip

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"net/netip"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"riptide/internal/core"
)

// codecEntries is the table every entry-shaped corner of the wire lives in:
// both families, non-host masks, 4-in-6, an invalid prefix, quarantine
// markers, unversioned entries, a negative age and the integer extremes.
func codecEntries() []core.SnapshotEntry {
	return []core.SnapshotEntry{
		{Prefix: netip.MustParsePrefix("203.0.113.7/32"), Window: 42, Samples: 1234, Age: 3 * time.Second, Version: 17},
		{Prefix: netip.MustParsePrefix("10.0.0.0/8"), Window: 10, Samples: 1, Version: 1},
		{Prefix: netip.MustParsePrefix("0.0.0.0/0"), Window: 100},
		{Prefix: netip.MustParsePrefix("2001:db8::1/128"), Window: 64, Samples: 9, Age: time.Nanosecond, Version: math.MaxUint64},
		{Prefix: netip.MustParsePrefix("2001:db8:aa00::/40"), Window: 11, Samples: math.MaxUint64, Age: math.MaxInt64, Version: 2},
		{Prefix: netip.MustParsePrefix("::ffff:192.0.2.1/128"), Window: 12, Samples: 3, Version: 3},
		{Prefix: netip.MustParsePrefix("::/0"), Window: math.MaxInt64, Age: math.MinInt64},
		{Prefix: netip.MustParsePrefix("198.51.100.9/32"), Age: 5 * time.Second, Quarantined: true},
		{Prefix: netip.MustParsePrefix("198.51.100.0/24"), Window: -4, Age: -time.Second, Quarantined: true, Version: 8},
		{Window: 30, Samples: 2, Version: 4}, // zero Prefix
	}
}

// TestDeltaWireRoundTrip: every entry-shaped corner of the table decodes to
// exactly what the JSON wire of version 1 made of it — ToCore(FromCore(e)),
// the text round trip, which keeps every valid prefix and turns an invalid
// one into the zero Prefix — through both sinks, under every header shape,
// and the wire entries re-encode to the same bytes.
func TestDeltaWireRoundTrip(t *testing.T) {
	headers := []Delta{
		{Version: WireVersion},
		{Version: WireVersion, Source: "host-a", Instance: "boot-1", TableVersion: 42, Since: 40},
		{Version: WireVersion, Source: "host-a", Instance: "boot-1", TableVersion: math.MaxUint64, Full: true},
		{Version: WireVersion, Source: "a\"b\\c\n\t\x00\x1f", Instance: "<script>&amp;</script>  ", TableVersion: 1, Since: math.MaxUint64, Full: true},
		{Version: WireVersion, Source: "hôte-日本", Instance: "bad-utf8-\xff\xfe", TableVersion: 7},
	}
	corners := codecEntries()
	reversed := slices.Clone(corners)
	slices.Reverse(reversed)
	tables := []struct {
		name    string
		entries []core.SnapshotEntry
	}{
		{"nil", nil},
		{"one", corners[:1]},
		{"corners", corners},
		{"corners reversed", reversed},
		{"IPv4 only", []core.SnapshotEntry{
			{Prefix: netip.MustParsePrefix("255.255.255.255/32"), Window: 1, Version: 5},
			{Prefix: netip.MustParsePrefix("0.0.0.0/32"), Window: 2, Version: 3}, // the address delta wraps
			{Prefix: netip.MustParsePrefix("128.0.0.1/32"), Window: 3, Version: 3},
			{Prefix: netip.MustParsePrefix("10.1.2.3/8"), Window: 4, Version: 9}, // bits past the mask are kept
		}},
		{"IPv6 only", []core.SnapshotEntry{
			{Prefix: netip.MustParsePrefix("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128"), Window: 5},
			{Prefix: netip.MustParsePrefix("::1/128"), Window: 6, Version: math.MaxUint64},
			{Prefix: netip.MustParsePrefix("::ffff:10.0.0.1/96"), Window: 7, Version: 0},
			{Prefix: netip.MustParsePrefix("2001:db8::1/0"), Window: math.MinInt64, Samples: math.MaxUint64, Age: math.MaxInt64},
		}},
		{"markers and invalid prefixes", []core.SnapshotEntry{
			{Quarantined: true},
			{Prefix: netip.PrefixFrom(netip.MustParseAddr("10.0.0.1"), 33), Window: 8, Version: 2}, // invalid: too long
			{Prefix: netip.MustParsePrefix("198.51.100.9/32"), Age: 5 * time.Second, Quarantined: true},
			{Prefix: netip.MustParsePrefix("2001:db8::/32"), Quarantined: true, Version: 1},
		}},
	}
	for _, h := range headers {
		for _, table := range tables {
			entries := table.entries
			name := fmt.Sprintf("source %q, %s", h.Source, table.name)
			body, err := AppendDelta([]byte("kept:"), h, entries)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(body, []byte("kept:")) {
				t.Fatalf("%s: AppendDelta dropped what dst held", name)
			}
			body = body[len("kept:"):]
			want := ToCore(FromCore(entries))

			held := codecEntries()[:2]
			d, merged, err := DecodeDeltaAppend(held, body)
			if err != nil {
				t.Fatalf("%s: DecodeDeltaAppend: %v", name, err)
			}
			if d.Entries != nil {
				t.Errorf("%s: the merge sink also filled d.Entries", name)
			}
			if !slices.Equal(merged[:2], codecEntries()[:2]) || !slices.Equal(merged[2:], want) {
				t.Errorf("%s: merge form\n %+v\nwant what the JSON wire gave\n %+v", name, merged[2:], want)
			}
			hd := h
			hd.Entries = nil
			if !reflect.DeepEqual(d, hd) {
				t.Errorf("%s: header %+v, want %+v", name, d, hd)
			}

			wire, err := DecodeDelta(body)
			if err != nil {
				t.Fatalf("%s: DecodeDelta: %v", name, err)
			}
			if !slices.Equal(wire.Entries, FromCore(want)) {
				t.Errorf("%s: wire entries\n %+v\nwant\n %+v", name, wire.Entries, FromCore(want))
			}
			again, err := EncodeDelta(wire)
			if err != nil || !bytes.Equal(again, body) {
				t.Errorf("%s: the decoded delta re-encodes to other bytes (%v)", name, err)
			}
		}
	}
	if _, err := AppendDelta(nil, Delta{Version: WireVersion + 1}, nil); err == nil {
		t.Error("AppendDelta encoded an unknown wire version")
	}
}

// TestDecodeDeltaRefusesCountPastBody: a header may claim any entry count,
// and the decoder sizes nothing from a count the rest of the body cannot
// hold — a peer cannot make a puller allocate what it never sends.
func TestDecodeDeltaRefusesCountPastBody(t *testing.T) {
	good, err := AppendDelta(nil, benchHeader, benchEntries()[:100])
	if err != nil {
		t.Fatal(err)
	}
	head, err := AppendDelta(nil, benchHeader, nil)
	if err != nil {
		t.Fatal(err)
	}
	entries := good[len(head):][1:] // past the one-byte count of 100
	for _, count := range []uint64{uint64(len(entries))/minEntryBytes + 1, 1 << 24, 1 << 40, math.MaxUint64} {
		body := binary.AppendUvarint(slices.Clone(head[:len(head)-1]), count)
		body = append(body, entries...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := DecodeDeltaAppend(nil, body)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("a body claiming %d entries decoded", count)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 4096 {
			t.Errorf("refusing a count of %d allocated %d bytes", count, n)
		}
	}
}

// benchEntries is a churn round's delta: 7k IPv4 host routes.
func benchEntries() []core.SnapshotEntry {
	out := make([]core.SnapshotEntry, 7000)
	for i := range out {
		out[i] = core.SnapshotEntry{
			Prefix:  netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i / 62500), byte(i / 250), byte(1 + i%250)}), 32),
			Window:  10 + i%90,
			Samples: uint64(1000 + i),
			Age:     time.Duration(i%90) * time.Second,
			Version: uint64(100000 + i),
		}
	}
	return out
}

var benchHeader = Delta{Version: WireVersion, Source: "bench", Instance: "boot-1", TableVersion: 107000, Since: 100000}

func BenchmarkAppendDelta(b *testing.B) {
	entries := benchEntries()
	buf, err := AppendDelta(nil, benchHeader, entries)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf, err = AppendDelta(buf[:0], benchHeader, entries); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeDeltaAppend is the puller's decode: the same body into a
// kept merge-form slice.
func BenchmarkDecodeDeltaAppend(b *testing.B) {
	data, err := AppendDelta(nil, benchHeader, benchEntries())
	if err != nil {
		b.Fatal(err)
	}
	var kept []core.SnapshotEntry
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, entries, err := DecodeDeltaAppend(kept[:0], data)
		if err != nil || len(entries) != 7000 {
			b.Fatalf("decoded %d entries, %v", len(entries), err)
		}
		kept = entries
	}
}

func BenchmarkDecodeDelta(b *testing.B) {
	data, err := AppendDelta(nil, benchHeader, benchEntries())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := DecodeDelta(data)
		if err != nil || len(d.Entries) != 7000 {
			b.Fatalf("decoded %d entries, %v", len(d.Entries), err)
		}
	}
}
