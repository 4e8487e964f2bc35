package fleet

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"net/http"
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

// Gzip scratch pools: fleet endpoints compress every response a peer asks
// gzipped, and a converged fleet asks every interval — allocating a fresh
// 800KB-state gzip.Writer (plus an output buffer) per response is pure
// churn. Writers are Reset between uses; buffers hand their bytes to the
// caller via copy so the pool never aliases live data.
//
// The level is BestSpeed. On a churn round's 640 KB delta the default level
// spends 5.3 ms to save 6 KB over BestSpeed's 1.7 ms (DESIGN.md has the
// table), and the box that pays it is a production host answering every peer
// every interval.
var (
	gzipWriterPool = sync.Pool{New: func() any {
		zw, _ := gzip.NewWriterLevel(io.Discard, gzip.BestSpeed) // the level is valid
		return zw
	}}
	gzipBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}
)

// gzipBytes compresses body into a freshly allocated slice using pooled
// compression scratch. Used to fill response caches, where the output is
// retained indefinitely and must not alias pooled memory.
func gzipBytes(body []byte) ([]byte, error) {
	buf := gzipBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	zw := gzipWriterPool.Get().(*gzip.Writer)
	zw.Reset(buf)
	_, werr := zw.Write(body)
	cerr := zw.Close()
	gzipWriterPool.Put(zw)
	if werr == nil {
		werr = cerr
	}
	out := append([]byte(nil), buf.Bytes()...)
	gzipBufPool.Put(buf)
	if werr != nil {
		return nil, werr
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
		zw := gzipWriterPool.Get().(*gzip.Writer)
		zw.Reset(buf)
		zw.Write(data)
		err := zw.Close()
		gzipWriterPool.Put(zw)
		if err == nil {
			w.Header().Set("Content-Encoding", "gzip")
			n, _ := w.Write(buf.Bytes())
			gzipBufPool.Put(buf)
			return n
		}
		gzipBufPool.Put(buf)
	}
	n, _ := w.Write(data)
	return n
}

// countingReader counts the raw (wire) bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// bodyReader is one puller's response-reading scratch: pulls run one at a
// time, so a response is read into the buffer earlier ones grew (a churn
// round's delta is about as large as the last one) through one gzip.Reader,
// Reset per response. peak is the largest body since the last trim.
type bodyReader struct {
	buf  []byte
	peak int
	kept core.Scratch[byte]
	br   *bufio.Reader
	zr   *gzip.Reader
}

// trim ends a pull round, whose size is the largest body it read: the
// buffer serves the next round if the retention rule keeps it.
func (b *bodyReader) trim() {
	b.kept.Keep(b.buf, b.peak)
	b.buf, b.peak = b.kept.Take(0), 0
}

// read reads an HTTP response body, transparently decompressing a gzip
// Content-Encoding, enforcing `limit` on the decompressed size, and
// reporting how many bytes actually crossed the wire (the compressed count
// when gzipped). data aliases the scratch: it is valid until the next read.
func (b *bodyReader) read(resp *http.Response, limit int64) (data []byte, wireBytes int64, err error) {
	cr := &countingReader{r: io.LimitReader(resp.Body, limit)}
	var r io.Reader = cr
	if strings.EqualFold(resp.Header.Get("Content-Encoding"), "gzip") {
		if b.zr == nil {
			// gzip.Reader wraps anything that is not a flate.Reader in a new
			// bufio.Reader on every Reset; handing it ours avoids that.
			b.br = bufio.NewReader(cr)
			b.zr, err = gzip.NewReader(b.br)
		} else {
			b.br.Reset(cr)
			err = b.zr.Reset(b.br)
		}
		if err != nil {
			return nil, cr.n, fmt.Errorf("gzip response: %w", err)
		}
		defer b.zr.Close()
		r = b.zr
	}
	buf := bytes.NewBuffer(b.buf[:0])
	_, err = buf.ReadFrom(io.LimitReader(r, limit+1))
	data = buf.Bytes()
	b.buf, b.peak = data, max(b.peak, len(data))
	if err != nil {
		return nil, cr.n, err
	}
	if int64(len(data)) > limit {
		return nil, cr.n, fmt.Errorf("response exceeds %d decompressed bytes", limit)
	}
	return data, cr.n, nil
}
