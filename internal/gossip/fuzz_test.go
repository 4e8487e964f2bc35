package gossip

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzDecodeDigest: the digest decoder must reject or accept arbitrary
// bytes without panicking, and whatever it accepts must re-encode.
func FuzzDecodeDigest(f *testing.F) {
	if seed, err := EncodeDigest(Compute(entriesFuzz(5), "host", "inst", 9)); err == nil {
		f.Add(seed)
	}
	f.Add([]byte(`{"version": 1, "buckets": []}`))
	f.Add([]byte(`{"version": 1,`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeDigest(data)
		if err != nil {
			return
		}
		if len(d.Buckets) != NumBuckets {
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
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if fast, ok := scanDelta(data); ok {
			var ref Delta
			if err := json.Unmarshal(data, &ref); err != nil {
				t.Fatalf("scanner accepted what json.Unmarshal rejects (%v): %q", err, data)
			}
			if !reflect.DeepEqual(fast, ref) {
				t.Fatalf("scanner and json.Unmarshal disagree on %q:\n scanner %+v\n json    %+v", data, fast, ref)
			}
		}
		d, err := DecodeDelta(data)
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
