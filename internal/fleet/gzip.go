package fleet

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"riptide/internal/core"
)

// Wire compression for the fleet endpoints: responses are gzipped when the
// client asks (Accept-Encoding: gzip) and reads are bounded on the
// DECOMPRESSED size, so a peer cannot smuggle a memory bomb past the
// on-the-wire cap inside a tiny compressed body. The puller sets
// Accept-Encoding itself, which also disables net/http's transparent
// decompression — every byte that crosses the limit does so visibly here.

// acceptsGzip reports whether the request advertises gzip support. The two
// fast paths cover nearly every real request — the puller sends exactly
// "gzip", plain clients send nothing — without the split's allocation.
func acceptsGzip(r *http.Request) bool {
	h := r.Header.Get("Accept-Encoding")
	if h == "" {
		return false
	}
	if h == "gzip" {
		return true
	}
	for _, part := range strings.Split(h, ",") {
		enc, params, _ := strings.Cut(part, ";")
		if strings.TrimSpace(enc) == "gzip" {
			return !refusedByWeight(params)
		}
	}
	return false
}

// refusedByWeight reports whether a coding's parameters carry the weight
// zero — "q=0", "q=0.0", up to three decimals (RFC 9110 §12.4.2) — which is
// an explicit "not acceptable", not a low preference. Anything else,
// malformed weights included, leaves the coding acceptable.
func refusedByWeight(params string) bool {
	for _, param := range strings.Split(params, ";") {
		name, value, _ := strings.Cut(param, "=")
		if !strings.EqualFold(strings.TrimSpace(name), "q") {
			continue
		}
		q, err := strconv.ParseFloat(strings.TrimSpace(value), 64)
		return err == nil && q == 0
	}
	return false
}

// Gzip scratch: fleet endpoints compress every response a peer asks gzipped,
// and a converged fleet asks every interval. A BestSpeed gzip.Writer builds a
// ≈1.2 MB compressor on its first write, so the idle writers are kept in
// gzipWriters, at most one per processor, which no garbage collection empties
// (a sync.Pool drops its items at every other one, and a serve after that
// re-buys the compressor). Output buffers, a fraction of that, stay in a
// sync.Pool; they hand their bytes to the caller by copy, so no pool aliases
// live data.
//
// The level is BestSpeed. On a churn round's 640 KB delta the default level
// spends 5.3 ms to save 6 KB over BestSpeed's 1.7 ms (DESIGN.md has the
// table), and the box that pays it is a production host answering every peer
// every interval.
var (
	// One idle writer per processor: as many serves can compress at once.
	gzipWriters = make(chan *gzip.Writer, runtime.GOMAXPROCS(0))
	gzipBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}
)

// gzipTo compresses data into buf with an idle writer, or a new one when
// every kept writer is busy, and keeps the writer afterwards if the list
// has room.
func gzipTo(buf *bytes.Buffer, data []byte) error {
	var zw *gzip.Writer
	select {
	case zw = <-gzipWriters:
		zw.Reset(buf)
	default:
		zw, _ = gzip.NewWriterLevel(buf, gzip.BestSpeed) // the level is valid
	}
	_, err := zw.Write(data)
	if cerr := zw.Close(); err == nil {
		err = cerr
	}
	zw.Reset(io.Discard) // an idle writer holds no caller's buffer
	select {
	case gzipWriters <- zw:
	default:
	}
	return err
}

// gzipBytes compresses body into a freshly allocated slice using pooled
// compression scratch. Used to fill response caches, where the output is
// retained indefinitely and must not alias pooled memory.
func gzipBytes(body []byte) ([]byte, error) {
	buf := gzipBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	err := gzipTo(buf, body)
	out := append([]byte(nil), buf.Bytes()...)
	gzipBufPool.Put(buf)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// writeJSON writes data (a JSON body, trailing newline included) as
// application/json, gzip-compressed when the client accepts it, and returns
// the bytes that went on the wire. Compression scratch comes from the pools
// above.
func writeJSON(w http.ResponseWriter, r *http.Request, data []byte) int {
	w.Header().Set("Content-Type", "application/json")
	if acceptsGzip(r) {
		buf := gzipBufPool.Get().(*bytes.Buffer)
		buf.Reset()
		defer gzipBufPool.Put(buf)
		if gzipTo(buf, data) == nil {
			w.Header().Set("Content-Encoding", "gzip")
			return writeBody(w, buf.Bytes())
		}
	}
	return writeBody(w, data)
}

// writeGunzipped writes a 200 whose body is gz decoded, size bytes under its
// Content-Length, for a client that refuses gzip, and returns the bytes
// written.
func writeGunzipped(w http.ResponseWriter, gz []byte, size int) int {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return 0
	}
	w.Header().Set("Content-Length", strconv.Itoa(size))
	n, _ := io.Copy(w, zr)
	return int(n)
}

// writeBody writes a 200's whole body under its Content-Length, which lets
// the puller read it into one buffer of that size (bodyReader.read).
func writeBody(w http.ResponseWriter, body []byte) int {
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	n, _ := w.Write(body)
	return n
}

// maxDeflateRatio bounds how far deflate can expand its input: one symbol
// of at least two bits (a length code and a distance code of one bit each)
// yields at most 258 bytes.
const maxDeflateRatio = 258 * 8 / 2

// bodyReader is one puller's response-reading scratch: pulls run one at a
// time, so a response is read into the buffers earlier ones grew (a churn
// round's delta is about as large as the last one) through one gzip.Reader,
// Reset per response.
type bodyReader struct {
	wire  roundBuf // the body as it crossed the wire, when gzipped
	plain roundBuf // the decoded body
	// src serves wire to zr. A bytes.Reader is a flate.Reader, so the gzip
	// reader reads it directly, with no bufio.Reader of its own per Reset.
	src bytes.Reader
	zr  *gzip.Reader
}

// roundBuf is one buffer of a bodyReader: reused from read to read within a
// pull round, and kept from round to round under core.Scratch's rule on the
// largest read of the round (peak).
type roundBuf struct {
	buf  []byte
	peak int
	kept core.Scratch[byte]
}

func (r *roundBuf) use(data []byte) {
	r.buf, r.peak = data, max(r.peak, len(data))
}

func (r *roundBuf) trim() {
	r.kept.Keep(r.buf, r.peak)
	r.buf, r.peak = r.kept.Take(0), 0
}

// trim ends a pull round: each buffer serves the next round if the retention
// rule keeps it.
func (b *bodyReader) trim() {
	b.wire.trim()
	b.plain.trim()
}

// read reads an HTTP response body, transparently decompressing a gzip
// Content-Encoding, enforcing `limit` on both the wire and the decompressed
// size, and reporting how many bytes actually crossed the wire (the
// compressed count when gzipped). A gzipped body is read whole first, so its
// trailer's ISIZE (RFC 1952) can size the decoded one. data aliases the
// scratch: it is valid until the next read.
func (b *bodyReader) read(resp *http.Response, limit int64) (data []byte, wireBytes int64, err error) {
	gzipped := strings.EqualFold(resp.Header.Get("Content-Encoding"), "gzip")
	dst := &b.plain
	if gzipped {
		dst = &b.wire
	}
	raw, err := readSized(dst.buf[:0], io.LimitReader(resp.Body, limit), resp.ContentLength, limit)
	dst.use(raw)
	wireBytes = int64(len(raw))
	if err != nil {
		return nil, wireBytes, err
	}
	if !gzipped {
		return raw, wireBytes, nil
	}
	b.src.Reset(raw)
	if b.zr == nil {
		b.zr, err = gzip.NewReader(&b.src)
	} else {
		err = b.zr.Reset(&b.src)
	}
	if err != nil {
		return nil, wireBytes, fmt.Errorf("gzip response: %w", err)
	}
	// ISIZE, the decoded size mod 2^32 in the last four bytes (the reader
	// has parsed a 10-byte header), is the peer's claim: a hint, bounded by
	// what deflate can expand the body to. The gzip reader checks it against
	// the stream, and the limit holds whatever it says.
	size := min(int64(binary.LittleEndian.Uint32(raw[len(raw)-4:])), maxDeflateRatio*wireBytes)
	data, err = readSized(b.plain.buf[:0], b.zr, size, limit+1)
	b.plain.use(data)
	if err != nil {
		return nil, wireBytes, err
	}
	if int64(len(data)) > limit {
		return nil, wireBytes, fmt.Errorf("response exceeds %d decompressed bytes", limit)
	}
	return data, wireBytes, nil
}

// readSized reads r into buf's array (buf is empty) until EOF, or until limit
// bytes are in. A size ≥ 0 is the expected length: the array gets room for it
// and one byte more, so the EOF after an exact size is read without growing.
// Past it, or with no size, the array doubles.
func readSized(buf []byte, r io.Reader, size, limit int64) ([]byte, error) {
	if n := min(size+1, limit); size >= 0 && int64(cap(buf)) < n {
		buf = make([]byte, 0, n)
	}
	for int64(len(buf)) < limit {
		if len(buf) == cap(buf) {
			buf = append(make([]byte, 0, min(max(2*int64(cap(buf)), 512), limit)), buf...)
		}
		n, err := r.Read(buf[len(buf):min(int64(cap(buf)), limit)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}
