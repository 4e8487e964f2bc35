package gossip

import (
	"bytes"
	"encoding/json"
	"math"
	"net/netip"
	"reflect"
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

// TestAppendDeltaMatchesMarshal pins AppendDelta byte-for-byte against
// json.Marshal of the same message with its entries converted by FromCore.
func TestAppendDeltaMatchesMarshal(t *testing.T) {
	headers := []Delta{
		{Version: WireVersion},
		{Version: WireVersion, Source: "host-a", Instance: "boot-1", TableVersion: 42, Since: 40},
		{Version: WireVersion, Source: "host-a", Instance: "boot-1", TableVersion: math.MaxUint64, Full: true},
		{Version: WireVersion, Source: "a\"b\\c\n\t\x00\x1f", Instance: "<script>&amp;</script>  ", TableVersion: 1, Since: 1, Full: true},
		{Version: WireVersion, Source: "hôte-日本", Instance: "bad-utf8-\xff\xfe", TableVersion: 7},
	}
	tables := map[string][]core.SnapshotEntry{
		"nil":     nil,
		"empty":   {},
		"one":     codecEntries()[:1],
		"corners": codecEntries(),
	}
	for _, h := range headers {
		for name, entries := range tables {
			want := h
			want.Entries = FromCore(entries)
			if entries == nil {
				want.Entries = nil
			}
			wantBytes, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			got, err := AppendDelta([]byte("kept:"), h, entries)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, append([]byte("kept:"), wantBytes...)) {
				t.Errorf("source %q, %s entries:\n got %s\nwant kept:%s", h.Source, name, got, wantBytes)
			}
			// What AppendDelta writes is the form the scanner takes — unless
			// the header strings needed escaping — and decodes to the message.
			d, ok := scanDelta(wantBytes, nil)
			if plain := h.Source == "" || h.Source == "host-a"; ok != plain {
				t.Errorf("source %q, %s entries: scanner accepted = %v, want %v", h.Source, name, ok, plain)
			}
			if ok && !reflect.DeepEqual(d, want) {
				t.Errorf("source %q, %s entries: scanned\n %+v\nwant\n %+v", h.Source, name, d, want)
			}
			// The merge sink holds the export itself again (a full table
			// stays text), through the scanner and through encoding/json.
			held := codecEntries()[:2]
			d, merged, scanned, err := DecodeDeltaAppend(held, wantBytes)
			if err != nil || scanned != ok {
				t.Fatalf("source %q, %s entries: DecodeDeltaAppend scanned = %v, %v", h.Source, name, scanned, err)
			}
			wantMerged := append(codecEntries()[:2], entries...)
			if h.Full {
				wantMerged = wantMerged[:2]
				if !reflect.DeepEqual(d, want) {
					t.Errorf("source %q, %s entries: full table decoded to\n %+v\nwant\n %+v", h.Source, name, d, want)
				}
			} else if d.Entries != nil {
				t.Errorf("source %q, %s entries: merge sink also filled d.Entries", h.Source, name)
			}
			if !reflect.DeepEqual(merged, wantMerged) {
				t.Errorf("source %q, %s entries: merge form\n %+v\nwant\n %+v", h.Source, name, merged, wantMerged)
			}
		}
	}
	if _, err := AppendDelta(nil, Delta{Version: WireVersion + 1}, nil); err == nil {
		t.Error("AppendDelta encoded an unknown wire version")
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
	data = append(data, '\n')
	var kept []core.SnapshotEntry
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, entries, _, err := DecodeDeltaAppend(kept[:0], data)
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
	data = append(data, '\n')
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
