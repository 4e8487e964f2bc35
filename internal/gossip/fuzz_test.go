package gossip

import (
	"encoding/json"
	"net/netip"
	"reflect"
	"testing"

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

// FuzzDecodeDelta: same contract for the delta decoder, and a differential
// for its fast path: whatever scanDelta accepts, json.Unmarshal accepts too
// and decodes to the identical Delta. The seeds sit on both sides of the
// scanner's accept set, so the decline path is walked as well.
//
// The merge sink rides the same target: DecodeDeltaAppend into nil, into a
// poisoned slice with spare capacity and into one at exact capacity must each
// hold ToCore(DecodeDelta(data).Entries) past what the slice already held,
// accept, decline and fail exactly where DecodeDelta does, and leave the held
// elements alone — a decline half-way through the entries included.
func FuzzDecodeDelta(f *testing.F) {
	if seed, err := EncodeDelta(Delta{
		Version:      WireVersion,
		Source:       "host",
		Instance:     "inst",
		TableVersion: 9,
		Since:        3,
		Entries:      entriesFuzz(5),
	}); err == nil {
		f.Add(seed)
		f.Add(append(seed, '\n'))
		f.Add(append([]byte(" "), seed...))
		f.Add(append(seed, '0'))
	}
	if seed, err := AppendDelta(nil, Delta{Version: WireVersion, Instance: "i", TableVersion: 3, Full: true}, codecEntries()); err == nil {
		f.Add(seed)
	}
	for _, seed := range []string{
		`{"version": 1, "entries": [{"prefix": "not-a-prefix", "window": -4}]}`,
		`{"version": 1,`,
		`0`,
		``,
		`{"version":1,"tableVersion":0,"entries":null}`,
		`{"version":1,"tableVersion":0,"entries":[]}` + " \t\r\n",
		`{"version":1,"tableVersion":0,"entries":[ ]}`,
		`{"tableVersion":0,"version":1,"entries":[]}`,
		`{"version":1,"version":2,"tableVersion":0,"entries":[]}`,
		`{"version":1,"tableVersion":0,"entries":[],"extra":true}`,
		`{"Version":1,"TABLEVERSION":5,"entries":[]}`,
		`{"version":1,"source":"a\u0041\n","tableVersion":0,"entries":[]}`,
		`{"version":1,"source":"caf\u00e9 \xff","tableVersion":0,"entries":[]}`,
		`{"version":1e2,"tableVersion":0,"entries":[]}`,
		`{"version":1,"tableVersion":-0,"entries":[]}`,
		`{"version":1,"tableVersion":01,"entries":[]}`,
		`{"version":1,"tableVersion":1.0,"entries":[]}`,
		`{"version":1,"tableVersion":18446744073709551615,"entries":[]}`,
		`{"version":1,"tableVersion":18446744073709551616,"entries":[]}`,
		`{"version":1,"tableVersion":99999999999999999999,"entries":[]}`,
		`{"version":1,"tableVersion":0,"since":0,"full":false,"entries":[]}`,
		`{"version":1,"tableVersion":0,"entries":[{"prefix":"::/0","window":-0,"samples":0,"ageNanos":0}]}`,
		`{"version":1,"tableVersion":0,"entries":[{"prefix":"::/0","window":-9223372036854775808,"samples":0,"ageNanos":-9223372036854775809}]}`,
		`{"version":1,"tableVersion":0,"entries":[{"prefix":"::/0","window":1,"samples":-1,"ageNanos":0}]}`,
		`{"version":1,"tableVersion":0,"entries":[{"prefix":"::/0","window":1,"samples":1,"ageNanos":0,"modVersion":2,"quarantined":true}]}`,
		`{"version":1,"tableVersion":0,"entries":[{"prefix":"::/0","window":1,"samples":1,"ageNanos":0,"quarantined":false}]}`,
		`{"version":1,"tableVersion":0,"entries":[{"prefix":"::/0","window":1,"samples":1,"ageNanos":0},]}`,
		`{"version":1,"tableVersion":0,"entries":[{"prefix":"::/0","window":1,"samples":1,"ageNanos":0}]}}`,
		// Two good entries, then one the scanner declines: the sink has
		// entries to take back.
		`{"version":1,"tableVersion":9,"since":3,"entries":[{"prefix":"10.0.0.1/32","window":10,"samples":1,"ageNanos":0},{"prefix":"10.0.0.2/32","window":11,"samples":1,"ageNanos":0},{"prefix":"10.0.0.3/32","window":12,"samples":1,"ageNanos":0 }]}`,
		`{"version":1,"tableVersion":9,"since":3,"entries":[{"prefix":"10.0.0.1/32","window":10,"samples":1,"ageNanos":0},{"prefix":"10.0.0.2/32","window":11,"samples":1,"ageNanos":`,
		`{"version":2,"tableVersion":9,"since":3,"entries":[{"prefix":"10.0.0.1/32","window":10,"samples":1,"ageNanos":0}]}`,
	} {
		f.Add([]byte(seed))
	}
	// Prefixes on both sides of the in-place IPv4 reader.
	for _, prefix := range []string{
		"010.0.0.1/32", "10.0.0.1/033", "10.0.0.1/33", "1.2.3.4", "1.2.3.4/", "1.2.3/24", "1.2.3.4.5/32",
		"::ffff:1.2.3.4/128", "fe80::1%eth0/64", "256.0.0.1/32", "1.2.3.999/32", "1.2.3.4/032", "1.2.3.4/0",
		"0.0.0.0/0", "255.255.255.255/32", "00.0.0.0/8", "1.2.3.4/32 ", "1..3.4/32", "1.2.3.4//32", "",
	} {
		f.Add([]byte(`{"version":1,"tableVersion":7,"since":2,"entries":[{"prefix":"` + prefix + `","window":10,"samples":1,"ageNanos":5,"modVersion":6}]}`))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fast, scanned := scanDelta(data, nil)
		if scanned {
			var ref Delta
			if err := json.Unmarshal(data, &ref); err != nil {
				t.Fatalf("scanner accepted what json.Unmarshal rejects (%v): %q", err, data)
			}
			if !reflect.DeepEqual(fast, ref) {
				t.Fatalf("scanner and json.Unmarshal disagree on %q:\n scanner %+v\n json    %+v", data, fast, ref)
			}
		}
		d, err := DecodeDelta(data)
		checkMergeSink(t, data, d, scanned, err)
		if err != nil {
			return
		}
		if _, err := EncodeDelta(d); err != nil {
			t.Fatalf("accepted delta does not re-encode: %v", err)
		}
		// Conversion to merge form never panics, whatever the entries hold;
		// malformed prefixes surface as invalid (the merge skips them).
		_ = ToCore(d.Entries)
	})
}

// checkMergeSink holds DecodeDeltaAppend to DecodeDelta's result for the
// same bytes (d, scanned, err), over the three shapes of destination.
func checkMergeSink(t *testing.T, data []byte, d Delta, scanned bool, err error) {
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
		got, merged, gotScanned, gotErr := DecodeDeltaAppend(dst, data)
		if (gotErr != nil) != (err != nil) || gotScanned != scanned {
			t.Fatalf("DecodeDeltaAppend(%d held) scanned=%v err=%v, DecodeDelta scanned=%v err=%v: %q", held, gotScanned, gotErr, scanned, err, data)
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
