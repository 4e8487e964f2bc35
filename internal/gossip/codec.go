package gossip

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/netip"
	"slices"
	"strconv"

	"riptide/internal/core"
)

// A faster writer and reader for the entry-bearing wire messages. The wire
// format is whatever encoding/json makes of Delta (and fleet.Snapshot):
// json.Marshal defines the bytes, json.Unmarshal the accept set. This file
// only produces and consumes that same canonical form without reflection —
// the entry array is where the bytes are (≈85 per entry, thousands per
// churn-round delta), so the writer renders it straight from the agent's
// export and the reader scans it, while message headers stay with
// encoding/json on the way out (a dozen fields once per message).
//
// TestAppendDeltaMatchesMarshal pins the writer byte-for-byte against
// json.Marshal; FuzzDecodeDelta pins the reader against json.Unmarshal:
// whatever scanDelta accepts, Unmarshal accepts with an equal result, and
// whatever it declines goes through Unmarshal as before. The reader has two
// sinks behind one entry loop — wire entries, or the merge's input directly
// (DecodeDeltaAppend) — and the same fuzz target pins the second to ToCore
// of the first.

// AppendEntries appends the JSON array json.Marshal renders for
// FromCore(entries) — `null` for a nil slice — without building the wire
// entries or a string per prefix.
func AppendEntries(dst []byte, entries []core.SnapshotEntry) []byte {
	if entries == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i := range entries {
		e := &entries[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"prefix":"`...)
		if e.Prefix.IsValid() {
			// CIDR text is digits, hex letters, '.', ':' and '/': nothing
			// JSON or HTML escaping touches.
			dst = e.Prefix.AppendTo(dst)
		} else {
			dst = append(dst, netip.Prefix{}.String()...)
		}
		dst = append(dst, `","window":`...)
		dst = strconv.AppendInt(dst, int64(e.Window), 10)
		dst = append(dst, `,"samples":`...)
		dst = strconv.AppendUint(dst, e.Samples, 10)
		dst = append(dst, `,"ageNanos":`...)
		dst = strconv.AppendInt(dst, int64(e.Age), 10)
		if e.Quarantined {
			dst = append(dst, `,"quarantined":true`...)
		}
		if e.Version != 0 {
			dst = append(dst, `,"modVersion":`...)
			dst = strconv.AppendUint(dst, e.Version, 10)
		}
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// SpliceEntries appends head — the json.Marshal of a message whose last
// field is `"entries"` holding a nil slice — with the array for entries in
// place of the null.
func SpliceEntries(dst, head []byte, entries []core.SnapshotEntry) []byte {
	const tail = "null}"
	if !bytes.HasSuffix(head, []byte(tail)) {
		panic("riptide/gossip: SpliceEntries: head does not end in a null entries field")
	}
	dst = append(dst, head[:len(head)-len(tail)]...)
	dst = AppendEntries(dst, entries)
	return append(dst, '}')
}

// AppendDelta appends the wire form of d carrying entries in place of
// d.Entries: exactly json.Marshal(d) with d.Entries = FromCore(entries).
func AppendDelta(dst []byte, d Delta, entries []core.SnapshotEntry) ([]byte, error) {
	if d.Version != WireVersion {
		return dst, fmt.Errorf("riptide/gossip: encode delta version %d, want %d", d.Version, WireVersion)
	}
	d.Entries = nil
	head, err := json.Marshal(d)
	if err != nil {
		return dst, err
	}
	return SpliceEntries(dst, head, entries), nil
}

// scanner walks one wire message left to right. Every method reports false
// to decline — the caller then hands the whole message to encoding/json.
type scanner struct {
	b []byte
	i int
}

// lit consumes s if the input continues with it.
func (s *scanner) lit(lit string) bool {
	if rest := s.b[s.i:]; len(rest) >= len(lit) && string(rest[:len(lit)]) == lit {
		s.i += len(lit)
		return true
	}
	return false
}

// uint consumes a canonical non-negative integer — "0" or digits with no
// leading zero — that fits 64 bits. Fractions and exponents end the digits
// early and fail the literal the caller expects next.
func (s *scanner) uint() (uint64, bool) {
	b, i := s.b, s.i // locals: the loop runs per digit of the body
	var v uint64
	for ; i < len(b); i++ {
		c := b[i] - '0'
		if c > 9 {
			break
		}
		v = v*10 + uint64(c) // cannot wrap below 20 digits
	}
	digits := b[s.i:i]
	s.i = i
	switch n := len(digits); {
	case n == 0, n > 20, n > 1 && digits[0] == '0':
		return 0, false
	case n == 20:
		v, err := strconv.ParseUint(string(digits), 10, 64)
		return v, err == nil
	}
	return v, true
}

// int consumes a canonical integer that fits 64 bits; "-0" is declined.
func (s *scanner) int() (int64, bool) {
	neg := s.lit("-")
	v, ok := s.uint()
	switch {
	case !ok, neg && (v == 0 || v > 1<<63), !neg && v > 1<<63-1:
		return 0, false
	case neg:
		return -int64(v), true
	}
	return int64(v), true
}

// str consumes a string whose bytes need no unescaping or UTF-8 repair —
// ASCII from space up, no backslash — and returns them, aliasing the input.
func (s *scanner) str() ([]byte, bool) {
	if !s.lit(`"`) {
		return nil, false
	}
	b := s.b
	for i := s.i; i < len(b); i++ {
		c := b[i]
		if c == '"' {
			text := b[s.i:i]
			s.i = i + 1
			return text, true
		}
		if c-' ' >= 0x80-' ' || c == '\\' { // below space, or past ASCII
			return nil, false
		}
	}
	return nil, false
}

// parsePrefix is what ToCore makes of a wire prefix, from its bytes: the
// canonical IPv4 form — every prefix an IPv4 fleet sends — is read in place,
// anything else goes to netip.ParsePrefix, and what that rejects is the
// invalid prefix the merge skips.
func parsePrefix(b []byte) netip.Prefix {
	if p, ok := ipv4Prefix(b); ok {
		return p
	}
	p, err := netip.ParsePrefix(string(b))
	if err != nil {
		return netip.Prefix{}
	}
	return p
}

// ipv4Prefix reads a.b.c.d/n as netip.ParsePrefix does, declining whatever
// is not exactly that: five decimal fields of one to three digits, none with
// a leading zero, octets to 255 and the length to 32.
func ipv4Prefix(b []byte) (netip.Prefix, bool) {
	var f [5]int
	i := 0
	for k := range f {
		start := i
		for ; i < len(b) && i-start < 3 && b[i]-'0' <= 9; i++ {
			f[k] = f[k]*10 + int(b[i]-'0')
		}
		if i == start || i-start > 1 && b[start] == '0' {
			return netip.Prefix{}, false
		}
		if k == 4 {
			break
		}
		if f[k] > 255 || i == len(b) || b[i] != ".../"[k] {
			return netip.Prefix{}, false
		}
		i++
	}
	if f[4] > 32 || i != len(b) {
		return netip.Prefix{}, false
	}
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(f[0]), byte(f[1]), byte(f[2]), byte(f[3])}), f[4]), true
}

// scanDelta decodes a delta in the canonical form json.Marshal writes: keys
// in declaration order, omitempty fields absent or present, no whitespace
// except after the closing brace, integers and strings as the scanner's
// methods take them. ok is false for everything else, valid or not.
//
// The entries go to the sink chosen once the header is read: d.Entries, or —
// when merge is given and the message is not a full table — merge form
// appended to *merge, d.Entries staying nil. A declined message may leave
// entries appended; the caller truncates.
func scanDelta(data []byte, merge *[]core.SnapshotEntry) (d Delta, ok bool) {
	s := scanner{b: data}
	if !s.lit(`{"version":`) {
		return Delta{}, false
	}
	version, ok := s.int()
	if !ok || int64(int(version)) != version {
		return Delta{}, false
	}
	d.Version = int(version)
	var text []byte
	if s.lit(`,"source":`) {
		if text, ok = s.str(); !ok {
			return Delta{}, false
		}
		d.Source = string(text)
	}
	if s.lit(`,"instance":`) {
		if text, ok = s.str(); !ok {
			return Delta{}, false
		}
		d.Instance = string(text)
	}
	if !s.lit(`,"tableVersion":`) {
		return Delta{}, false
	}
	if d.TableVersion, ok = s.uint(); !ok {
		return Delta{}, false
	}
	if s.lit(`,"since":`) {
		if d.Since, ok = s.uint(); !ok {
			return Delta{}, false
		}
	}
	d.Full = s.lit(`,"full":true`)
	if d.Full {
		// A full table is kept as text: its receiver recomputes the digest.
		merge = nil
	}
	switch {
	case !s.lit(`,"entries":`):
		return Delta{}, false
	case s.lit(`null`):
	case s.lit(`[]`):
		if merge == nil {
			d.Entries = []Entry{}
		}
	case s.lit(`[`):
		// Sized for the usual body in one allocation: an IPv4 host route
		// with a mod version runs 80 to 90 bytes.
		if hint := len(data)/80 + 1; merge == nil {
			d.Entries = make([]Entry, 0, hint)
		} else {
			*merge = slices.Grow(*merge, hint)
		}
		for {
			var e Entry
			var window, age int64
			if !s.lit(`{"prefix":`) {
				return Delta{}, false
			}
			if text, ok = s.str(); !ok || !s.lit(`,"window":`) {
				return Delta{}, false
			}
			if window, ok = s.int(); !ok || int64(int(window)) != window || !s.lit(`,"samples":`) {
				return Delta{}, false
			}
			if e.Samples, ok = s.uint(); !ok || !s.lit(`,"ageNanos":`) {
				return Delta{}, false
			}
			if age, ok = s.int(); !ok {
				return Delta{}, false
			}
			e.Window, e.AgeNanos = int(window), age
			e.Quarantined = s.lit(`,"quarantined":true`)
			if s.lit(`,"modVersion":`) {
				if e.ModVersion, ok = s.uint(); !ok {
					return Delta{}, false
				}
			}
			if !s.lit(`}`) {
				return Delta{}, false
			}
			if merge == nil {
				e.Prefix = string(text)
				d.Entries = append(d.Entries, e)
			} else {
				*merge = append(*merge, e.toCore(parsePrefix(text)))
			}
			if s.lit(`]`) {
				break
			}
			if !s.lit(`,`) {
				return Delta{}, false
			}
		}
	default:
		return Delta{}, false
	}
	if !s.lit(`}`) {
		return Delta{}, false
	}
	for _, c := range data[s.i:] {
		if c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return Delta{}, false
		}
	}
	return d, true
}
