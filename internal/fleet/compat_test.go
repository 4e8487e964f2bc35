package fleet

import (
	"strings"
	"testing"
	"time"

	"riptide/internal/core"
)

// TestDecodeWireVersions pins the snapshot wire format's one accepted
// version. The v1 (pre-governor) and v2 (quarantine markers) rows are golden
// bytes those builds wrote: they are rejected with an error naming their
// version, as are versions never written; v3 decodes with every field.
func TestDecodeWireVersions(t *testing.T) {
	cases := []struct {
		name    string
		payload string
		wantErr string
		check   func(t *testing.T, s Snapshot)
	}{
		{
			name: "v1 plain entry",
			payload: `{"version": 1, "source": "old", "createdUnixNano": 1,
				"entries": [{"prefix": "192.0.2.1/32", "window": 40, "samples": 9, "ageNanos": 1000000000}]}`,
			wantErr: "snapshot version 1, want 3",
		},
		{
			name: "v2 quarantine marker",
			payload: `{"version": 2, "createdUnixNano": 1,
				"entries": [{"prefix": "192.0.2.1/32", "quarantined": true, "ageNanos": 5}]}`,
			wantErr: "snapshot version 2, want 3",
		},
		{
			name: "v3 gossip versioned",
			payload: `{"version": 3, "source": "new", "instance": "boot-7", "tableVersion": 42,
				"createdUnixNano": 1,
				"entries": [{"prefix": "192.0.2.1/32", "window": 40, "samples": 9, "ageNanos": 5, "modVersion": 41}]}`,
			check: func(t *testing.T, s Snapshot) {
				if s.Instance != "boot-7" || s.TableVersion != 42 {
					t.Errorf("v3 gossip fields lost: %+v", s)
				}
				if s.Entries[0].ModVersion != 41 {
					t.Errorf("v3 entry mod version lost: %+v", s.Entries[0])
				}
			},
		},
		{name: "v0 rejected", payload: `{"version": 0, "entries": []}`, wantErr: "snapshot version 0, want 3"},
		{name: "v4 rejected", payload: `{"version": 4, "entries": []}`, wantErr: "snapshot version 4, want 3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Decode([]byte(tc.payload))
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Decode(%s) = %v, want an error naming %q", tc.payload, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			tc.check(t, s)
		})
	}
}

// TestV3EncoderRoundTrips: a current (v3) snapshot survives encode/decode
// with the gossip fields intact.
func TestV3EncoderRoundTrips(t *testing.T) {
	src, _, _ := newTestAgent(t, []core.Observation{obs(t, "192.0.2.1", 40)})
	snap := FromAgent(src, "host-a", time.Unix(1, 0))
	snap.Instance = "boot-1"
	if snap.Version != 3 {
		t.Fatalf("Version = %d, want 3", snap.Version)
	}
	if snap.TableVersion == 0 {
		t.Fatal("FromAgent exported no table version")
	}
	if snap.Entries[0].ModVersion == 0 {
		t.Fatal("exported entry carries no mod version")
	}
	data, err := Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.TableVersion != snap.TableVersion || got.Instance != "boot-1" {
		t.Fatalf("round trip lost gossip fields: %+v", got)
	}
	if got.Entries[0] != snap.Entries[0] {
		t.Fatalf("entry round trip: %+v != %+v", got.Entries[0], snap.Entries[0])
	}
}
