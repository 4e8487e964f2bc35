//go:build !linux

package netlink

import (
	"errors"
	"fmt"
	"runtime"
)

// Dial is unavailable off Linux: netlink is a Linux kernel interface. The
// portable parts of this package (wire codec, MemConn-backed tests and
// benchmarks) build and run everywhere; riptided's startup probe sees
// errors.ErrUnsupported from this stub and exits with it.
func Dial(proto int) (Conn, error) {
	return nil, fmt.Errorf("netlink: dial proto %d: %w on %s", proto, errors.ErrUnsupported, runtime.GOOS)
}
