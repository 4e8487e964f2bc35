package fleet

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"
)

// ErrNoSnapshot is returned by Load when the snapshot file does not exist —
// the normal first-boot case, distinct from a corrupt or unreadable file.
var ErrNoSnapshot = errors.New("riptide/fleet: no snapshot file")

// Save writes the snapshot to path atomically: the bytes land in a temporary
// file in the same directory, are synced, and replace path with a rename. A
// crash mid-write leaves the previous snapshot intact; readers never observe
// a partial file.
func Save(path string, s Snapshot) error {
	data, err := Encode(s)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("riptide/fleet: create temp snapshot: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		return fmt.Errorf("riptide/fleet: write snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("riptide/fleet: sync snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("riptide/fleet: close snapshot: %w", err)
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return fmt.Errorf("riptide/fleet: chmod snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("riptide/fleet: rename snapshot: %w", err)
	}
	return nil
}

// Load reads a snapshot from path and returns it along with the wall-clock
// time elapsed since it was written (clamped to zero if the clock went
// backwards). Callers age the snapshot by the elapsed time before merging,
// so entries saved before a long downtime are judged appropriately stale.
// A missing file returns ErrNoSnapshot.
func Load(path string, now time.Time) (Snapshot, time.Duration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return Snapshot{}, 0, ErrNoSnapshot
		}
		return Snapshot{}, 0, fmt.Errorf("riptide/fleet: read snapshot: %w", err)
	}
	s, err := Decode(data)
	if err != nil {
		return Snapshot{}, 0, err
	}
	elapsed := now.Sub(time.Unix(0, s.CreatedUnixNano))
	if elapsed < 0 {
		elapsed = 0
	}
	return s, elapsed, nil
}
