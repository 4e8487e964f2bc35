package gossip

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net/netip"
	"slices"
	"time"

	"riptide/internal/core"
)

// The delta wire (version 2): one binary message per GET /fleet/delta,
// versioned deltas and the full table alike, sent uncompressed. Integers are
// varints (encoding/binary's), signed ones zigzag-coded; "prev" values start
// at zero and advance entry by entry.
//
//	header:
//	  magic        "RPTD"
//	  version      uvarint           WireVersion
//	  flags        byte              bit 0: full; no other bit is set
//	  source       uvarint len, bytes
//	  instance     uvarint len, bytes
//	  tableVersion uvarint
//	  since        uvarint
//	  count        uvarint           the entries that follow, to the end
//	entry:
//	  tag          byte              bits 0-1 family (0 invalid, 1 IPv4,
//	                                 2 IPv6), bit 2 quarantined, bit 3 host
//	                                 (the family's full length); no other bit
//	  bits         byte              a valid prefix that is not a host route
//	  address      IPv4: uvarint zigzag(int32(addr - prev IPv4 addr))
//	               IPv6: two of uvarint zigzag(int64(half - prev half)),
//	                     the high then the low 64 bits
//	  window       uvarint zigzag
//	  samples      uvarint
//	  age          uvarint zigzag, nanoseconds
//	  version      uvarint zigzag(int64(version - prev version))
//
// Entries keep the export's prefix order, so neighbouring addresses are
// close and a churn delta's versions repeat: a host route's address delta
// and its version delta are a byte each. The encoding is canonical — every
// varint minimal, every flag a known bit, nothing after the last entry — so
// a body that decodes re-encodes to the same bytes (FuzzDecodeDelta).

// magic opens every delta body. A JSON body, the wire of version 1, opens
// with '{' instead.
const magic = "RPTD"

const (
	flagFull = 1 << 0

	tagFamily      = 3 << 0
	tagQuarantined = 1 << 2
	tagHost        = 1 << 3

	familyInvalid = 0
	familyIPv4    = 1
	familyIPv6    = 2
)

// minEntryBytes is the smallest entry on the wire — an invalid prefix: a tag
// and four one-byte varints. A count the rest of the body cannot hold at
// that size is refused before anything is allocated for it.
const minEntryBytes = 5

// AppendDelta appends the wire form of d carrying entries in place of
// d.Entries, in the order given.
func AppendDelta(dst []byte, d Delta, entries []core.SnapshotEntry) ([]byte, error) {
	if d.Version != WireVersion {
		return dst, fmt.Errorf("riptide/gossip: encode delta version %d, want %d", d.Version, WireVersion)
	}
	dst = append(dst, magic...)
	dst = binary.AppendUvarint(dst, uint64(d.Version))
	var flags byte
	if d.Full {
		flags |= flagFull
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(len(d.Source)))
	dst = append(dst, d.Source...)
	dst = binary.AppendUvarint(dst, uint64(len(d.Instance)))
	dst = append(dst, d.Instance...)
	dst = binary.AppendUvarint(dst, d.TableVersion)
	dst = binary.AppendUvarint(dst, d.Since)
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	var prev prevFields
	for i := range entries {
		dst = prev.appendEntry(dst, &entries[i])
	}
	return dst, nil
}

// prevFields is what an entry is coded against: the fields of the entries
// before it.
type prevFields struct {
	v4      uint32
	hi, lo  uint64
	version uint64
}

func (p *prevFields) appendEntry(dst []byte, e *core.SnapshotEntry) []byte {
	var tag byte
	if e.Quarantined {
		tag |= tagQuarantined
	}
	addr, bits := e.Prefix.Addr(), e.Prefix.Bits()
	switch {
	case !e.Prefix.IsValid():
		dst = append(dst, tag|familyInvalid)
	case addr.Is4():
		if bits == 32 {
			dst = append(dst, tag|familyIPv4|tagHost)
		} else {
			dst = append(dst, tag|familyIPv4, byte(bits))
		}
		a4 := addr.As4()
		v := binary.BigEndian.Uint32(a4[:])
		dst = binary.AppendUvarint(dst, uint64(zigzag32(int32(v-p.v4))))
		p.v4 = v
	default:
		if bits == 128 {
			dst = append(dst, tag|familyIPv6|tagHost)
		} else {
			dst = append(dst, tag|familyIPv6, byte(bits))
		}
		a16 := addr.As16()
		hi, lo := binary.BigEndian.Uint64(a16[:8]), binary.BigEndian.Uint64(a16[8:])
		dst = binary.AppendUvarint(dst, zigzag64(int64(hi-p.hi)))
		dst = binary.AppendUvarint(dst, zigzag64(int64(lo-p.lo)))
		p.hi, p.lo = hi, lo
	}
	dst = binary.AppendUvarint(dst, zigzag64(int64(e.Window)))
	dst = binary.AppendUvarint(dst, e.Samples)
	dst = binary.AppendUvarint(dst, zigzag64(int64(e.Age)))
	dst = binary.AppendUvarint(dst, zigzag64(int64(e.Version-p.version)))
	p.version = e.Version
	return dst
}

// EncodeDelta serializes a delta. Entry prefixes are parsed as ToCore
// parses them: one that does not parse goes on the wire as an invalid
// prefix.
func EncodeDelta(d Delta) ([]byte, error) {
	return AppendDelta(nil, d, ToCore(d.Entries))
}

// DecodeDelta parses a wire delta, rejecting unknown versions, JSON bodies of
// wire version 1 among them, with an error that names the version.
func DecodeDelta(data []byte) (Delta, error) {
	d, _, err := decodeDelta(data, nil, false)
	return d, err
}

// DecodeDeltaAppend is DecodeDelta for a receiver that merges what it gets:
// the entries are decoded straight to merge form and appended to dst — what
// ToCore(d.Entries) would hold — and d.Entries stays nil. dst is grown once,
// to the body's entry count, and no entry allocates. On error dst is
// returned as given.
func DecodeDeltaAppend(dst []core.SnapshotEntry, data []byte) (Delta, []core.SnapshotEntry, error) {
	held := len(dst)
	d, dst, err := decodeDelta(data, dst, true)
	if err != nil {
		return Delta{}, dst[:held], err
	}
	return d, dst, nil
}

// errTruncated is a body that ends inside a field, or holds a varint that
// is not minimal: either way, not a body AppendDelta wrote.
var errTruncated = errors.New("riptide/gossip: delta body is truncated, or a varint in it is not minimal")

// decodeDelta decodes into d.Entries or, with merge set, onto out as
// DecodeDeltaAppend describes; on error out may hold a partial decode, which
// the caller drops.
func decodeDelta(data []byte, out []core.SnapshotEntry, merge bool) (d Delta, _ []core.SnapshotEntry, err error) {
	r := reader{b: data}
	if err := r.header(&d); err != nil {
		return Delta{}, out, err
	}
	count, ok := r.uvarint()
	if !ok {
		return Delta{}, out, errTruncated
	}
	if rest := uint64(len(r.b) - r.i); count > rest/minEntryBytes {
		return Delta{}, out, fmt.Errorf("riptide/gossip: delta claims %d entries, the %d bytes after its header hold at most %d",
			count, rest, rest/minEntryBytes)
	}
	n := int(count)
	if merge {
		out = slices.Grow(out, n)
	} else {
		d.Entries = make([]Entry, 0, n)
	}
	var prev prevFields
	for range n {
		var e core.SnapshotEntry
		if err := r.entry(&e, &prev); err != nil {
			return Delta{}, out, err
		}
		if merge {
			out = append(out, e)
		} else {
			d.Entries = append(d.Entries, fromCore(e))
		}
	}
	if r.i != len(r.b) {
		return Delta{}, out, fmt.Errorf("riptide/gossip: %d bytes follow the delta's last entry", len(r.b)-r.i)
	}
	return d, out, nil
}

// reader walks one delta body. Its methods report false at the end of the
// body or on a varint that is not minimal, so that what decodes is exactly
// what AppendDelta writes.
type reader struct {
	b []byte
	i int
}

func (r *reader) byte() (byte, bool) {
	if r.i >= len(r.b) {
		return 0, false
	}
	c := r.b[r.i]
	r.i++
	return c, true
}

func (r *reader) uvarint() (uint64, bool) {
	if r.i < len(r.b) && r.b[r.i] < 0x80 { // the usual one-byte value
		v := r.b[r.i]
		r.i++
		return uint64(v), true
	}
	v, n := binary.Uvarint(r.b[r.i:])
	if n <= 0 || r.b[r.i+n-1] == 0 { // truncated, past 64 bits, or overlong
		return 0, false
	}
	r.i += n
	return v, true
}

func (r *reader) varint() (int64, bool) {
	u, ok := r.uvarint()
	return unzigzag64(u), ok
}

func (r *reader) str() (string, bool) {
	n, ok := r.uvarint()
	if !ok || n > uint64(len(r.b)-r.i) {
		return "", false
	}
	s := string(r.b[r.i : r.i+int(n)])
	r.i += int(n)
	return s, true
}

// header reads everything before the entry count.
func (r *reader) header(d *Delta) error {
	if len(r.b) < len(magic) || string(r.b[:len(magic)]) != magic {
		if i := skipSpace(r.b); i < len(r.b) && r.b[i] == '{' {
			return fmt.Errorf("riptide/gossip: delta body is JSON, wire version 1; this build reads wire version %d (the peer needs upgrading)", WireVersion)
		}
		return fmt.Errorf("riptide/gossip: delta body does not open with %q (wire version %d)", magic, WireVersion)
	}
	r.i = len(magic)
	version, ok := r.uvarint()
	if !ok {
		return errTruncated
	}
	if version != WireVersion {
		return fmt.Errorf("riptide/gossip: delta wire version %d, want %d", version, WireVersion)
	}
	d.Version = WireVersion
	flags, ok := r.byte()
	if !ok {
		return errTruncated
	}
	if flags&^flagFull != 0 {
		return fmt.Errorf("riptide/gossip: delta flags %#x carry unknown bits", flags)
	}
	d.Full = flags&flagFull != 0
	if d.Source, ok = r.str(); !ok {
		return errTruncated
	}
	if d.Instance, ok = r.str(); !ok {
		return errTruncated
	}
	if d.TableVersion, ok = r.uvarint(); !ok {
		return errTruncated
	}
	if d.Since, ok = r.uvarint(); !ok {
		return errTruncated
	}
	return nil
}

// entry reads one entry into e, coded against prev.
func (r *reader) entry(e *core.SnapshotEntry, prev *prevFields) error {
	tag, ok := r.byte()
	if !ok {
		return errTruncated
	}
	if tag&^(tagFamily|tagQuarantined|tagHost) != 0 {
		return fmt.Errorf("riptide/gossip: entry tag %#x carries unknown bits", tag)
	}
	e.Quarantined = tag&tagQuarantined != 0
	family, host := tag&tagFamily, tag&tagHost != 0
	full := 0
	switch family {
	case familyInvalid:
		if host {
			return fmt.Errorf("riptide/gossip: entry tag %#x marks an invalid prefix a host route", tag)
		}
	case familyIPv4:
		full = 32
	case familyIPv6:
		full = 128
	default:
		return fmt.Errorf("riptide/gossip: entry tag %#x names no address family", tag)
	}
	bits := full
	if family != familyInvalid && !host {
		b, ok := r.byte()
		if !ok {
			return errTruncated
		}
		if int(b) >= full {
			return fmt.Errorf("riptide/gossip: entry prefix length %d is not below the family's %d", b, full)
		}
		bits = int(b)
	}
	switch family {
	case familyIPv4:
		u, ok := r.uvarint()
		if !ok {
			return errTruncated
		}
		if u > math.MaxUint32 {
			return fmt.Errorf("riptide/gossip: IPv4 address delta %#x does not fit 32 bits", u)
		}
		prev.v4 += uint32(unzigzag32(uint32(u)))
		var a [4]byte
		binary.BigEndian.PutUint32(a[:], prev.v4)
		e.Prefix = netip.PrefixFrom(netip.AddrFrom4(a), bits)
	case familyIPv6:
		dhi, ok1 := r.varint()
		dlo, ok2 := r.varint()
		if !ok1 || !ok2 {
			return errTruncated
		}
		prev.hi += uint64(dhi)
		prev.lo += uint64(dlo)
		var a [16]byte
		binary.BigEndian.PutUint64(a[:8], prev.hi)
		binary.BigEndian.PutUint64(a[8:], prev.lo)
		e.Prefix = netip.PrefixFrom(netip.AddrFrom16(a), bits)
	}
	window, ok1 := r.varint()
	samples, ok2 := r.uvarint()
	age, ok3 := r.varint()
	dv, ok4 := r.varint()
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return errTruncated
	}
	if int64(int(window)) != window {
		return fmt.Errorf("riptide/gossip: entry window %d overflows int", window)
	}
	prev.version += uint64(dv)
	e.Window, e.Samples, e.Age, e.Version = int(window), samples, time.Duration(age), prev.version
	return nil
}

// skipSpace is the index of the first byte of b that is not JSON whitespace.
func skipSpace(b []byte) int {
	i := 0
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}

func zigzag64(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag64(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
func zigzag32(v int32) uint32   { return uint32(v<<1) ^ uint32(v>>31) }
func unzigzag32(u uint32) int32 { return int32(u>>1) ^ -int32(u&1) }
