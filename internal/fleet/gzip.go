package fleet

import (
	"bytes"
	"compress/gzip"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
)

// Compression of the operators' snapshot endpoint: its JSON is gzipped when
// the client asks (Accept-Encoding: gzip). The delta endpoint is never
// compressed: its binary body is already as small as gzip would make it
// (docs/gossip.md).

// acceptsGzip reports whether the request advertises gzip support. The two
// fast paths cover nearly every real request — a gzip client sends exactly
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

// gzipWriters keeps idle gzip writers, at most one per processor (as many
// snapshot rebuilds as can compress at once), in a list no garbage collection
// empties: a BestSpeed gzip.Writer builds a ≈1.2 MB compressor on its first
// write, and a sync.Pool drops its items at every other collection, after
// which a serve re-buys the compressor.
//
// The level is BestSpeed. On a churn round's 640 KB of JSON the default
// level spent 5.3 ms to save 6 KB over BestSpeed's 1.7 ms (DESIGN.md has the
// table).
var gzipWriters = make(chan *gzip.Writer, runtime.GOMAXPROCS(0))

// gzipBytes compresses body into a new slice, which the snapshot cache keeps,
// with an idle writer or a new one when every kept writer is busy, and keeps
// the writer afterwards if the list has room.
func gzipBytes(body []byte) ([]byte, error) {
	var buf bytes.Buffer
	var zw *gzip.Writer
	select {
	case zw = <-gzipWriters:
		zw.Reset(&buf)
	default:
		zw, _ = gzip.NewWriterLevel(&buf, gzip.BestSpeed) // the level is valid
	}
	_, err := zw.Write(body)
	if cerr := zw.Close(); err == nil {
		err = cerr
	}
	zw.Reset(io.Discard) // an idle writer holds no caller's buffer
	select {
	case gzipWriters <- zw:
	default:
	}
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
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
