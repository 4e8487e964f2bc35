package fleet

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"riptide/internal/core"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	a, _, _ := newTestAgent(t, []core.Observation{obs(t, "192.0.2.1", 40)})
	path := filepath.Join(t.TempDir(), "snapshot.json")
	created := time.Unix(1700000000, 0)

	if err := Save(path, FromAgent(a, "host-a", created)); err != nil {
		t.Fatalf("Save: %v", err)
	}

	loaded, elapsed, err := Load(path, created.Add(42*time.Second))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if elapsed != 42*time.Second {
		t.Fatalf("elapsed = %v, want 42s", elapsed)
	}
	if len(loaded.Entries) != 1 || loaded.Entries[0].Prefix != "192.0.2.1/32" || loaded.Entries[0].Window != 40 {
		t.Fatalf("loaded = %+v", loaded)
	}

	// No temp files left behind.
	dir, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	for _, de := range dir {
		if strings.Contains(de.Name(), ".tmp") {
			t.Fatalf("temp file left behind: %s", de.Name())
		}
	}
}

func TestLoadClampsBackwardsClock(t *testing.T) {
	a, _, _ := newTestAgent(t, nil)
	path := filepath.Join(t.TempDir(), "snapshot.json")
	created := time.Unix(1700000000, 0)
	if err := Save(path, FromAgent(a, "", created)); err != nil {
		t.Fatalf("Save: %v", err)
	}
	_, elapsed, err := Load(path, created.Add(-time.Hour))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if elapsed != 0 {
		t.Fatalf("elapsed = %v, want 0 for a backwards clock", elapsed)
	}
}

func TestLoadMissingFile(t *testing.T) {
	_, _, err := Load(filepath.Join(t.TempDir(), "nope.json"), time.Now())
	if !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("err = %v, want ErrNoSnapshot", err)
	}
}

func TestLoadCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snapshot.json")
	if err := os.WriteFile(path, []byte("{{{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(path, time.Now()); err == nil {
		t.Fatal("Load accepted corrupt file")
	}
}

func TestSaveReplacesAtomically(t *testing.T) {
	a1, _, _ := newTestAgent(t, []core.Observation{obs(t, "192.0.2.1", 40)})
	a2, _, _ := newTestAgent(t, []core.Observation{obs(t, "198.51.100.7", 80)})
	path := filepath.Join(t.TempDir(), "snapshot.json")

	if err := Save(path, FromAgent(a1, "", time.Unix(1, 0))); err != nil {
		t.Fatalf("Save 1: %v", err)
	}
	if err := Save(path, FromAgent(a2, "", time.Unix(2, 0))); err != nil {
		t.Fatalf("Save 2: %v", err)
	}
	loaded, _, err := Load(path, time.Unix(3, 0))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(loaded.Entries) != 1 || loaded.Entries[0].Prefix != "198.51.100.7/32" {
		t.Fatalf("loaded = %+v, want only the second agent's entry", loaded)
	}
}
