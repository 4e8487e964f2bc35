package fleet

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"riptide/internal/core"
	gossippkg "riptide/internal/gossip"
)

// TestAcceptsGzipHonoursWeights: a coding listed with the weight zero is
// refused (RFC 9110 §12.5.3), not accepted because its name matched.
func TestAcceptsGzipHonoursWeights(t *testing.T) {
	for _, tc := range []struct {
		header string
		want   bool
	}{
		{"gzip", true},
		{"gzip;q=0", false},
		{"gzip; q=0.5", true},
		{"identity, gzip;q=0", false},
		{"br, gzip", true},
		{"", false},
		{"gzip;q=0.0", false},
		{"gzip ; Q=0.000 ", false},
		{"gzip;q=1", true},
		{"gzip;q=0.001", true},
		{"gzip;q=zero", true}, // a weight that does not parse refuses nothing
		{"br;q=0, gzip", true},
		{"x-gzip;q=0, deflate", false},
	} {
		r := httptest.NewRequest(http.MethodGet, DeltaPath, nil)
		if tc.header != "" {
			r.Header.Set("Accept-Encoding", tc.header)
		}
		if got := acceptsGzip(r); got != tc.want {
			t.Errorf("Accept-Encoding %q: acceptsGzip = %v, want %v", tc.header, got, tc.want)
		}
	}
	for _, header := range []string{"", "gzip"} {
		r := httptest.NewRequest(http.MethodGet, DeltaPath, nil)
		r.Header["Accept-Encoding"] = []string{header}
		if allocs := testing.AllocsPerRun(100, func() { acceptsGzip(r) }); allocs != 0 {
			t.Errorf("Accept-Encoding %q: the fast path allocates %.0f times", header, allocs)
		}
	}

	// End to end: the refusing client gets a body it can read.
	a, _, _ := newTestAgent(t, []core.Observation{obs(t, "192.0.2.1", 40)})
	req := httptest.NewRequest(http.MethodGet, DeltaPath, nil)
	req.Header.Set("Accept-Encoding", "identity, gzip;q=0")
	w := httptest.NewRecorder()
	NewServer(a, "host-a", "boot-1", nil).DeltaHandler().ServeHTTP(w, req)
	if enc := w.Header().Get("Content-Encoding"); enc != "" || !bytes.HasPrefix(w.Body.Bytes(), []byte(`{"version":`)) {
		t.Fatalf("client refusing gzip got Content-Encoding %q, body %.20q", enc, w.Body.Bytes())
	}
}

// reply is one scripted answer of the delta endpoint.
type reply struct {
	// body is the plain reply. Where it carries echoSince, the peer writes the
	// request's own since instead, as a server echoes the cursor it computed
	// the delta against.
	body []byte
	etag string // sent as the ETag header when set
	// notModified answers 304 with no body, whatever the request asked.
	notModified bool
	gzip        bool // compressed on the way out and sent with Content-Encoding: gzip
	// isize, when set, overwrites the gzip trailer's ISIZE (the decoded
	// length mod 2^32, RFC 1952) with a lie.
	isize uint32
	half  bool // only the first half of the bytes that would go out is sent
	// hangUp declares the whole body's Content-Length, sends half of it and
	// drops the connection; otherwise the length is that of what is sent.
	hangUp bool
	// chunked sends the body with no Content-Length, as a peer that streams
	// it; otherwise the length is declared, as fleet.Server declares it.
	chunked bool
}

// echoSince is the since a ?since= reply of a script carries until the peer
// serves it; see reply.body.
const echoSince = 1<<53 - 1

// request is what the scripted peer saw of one request.
type request struct {
	query       string
	ifNoneMatch string
}

// scriptedPeer is a fleet peer whose delta endpoint serves the next reply of
// a script to every request, and records the requests.
type scriptedPeer struct {
	t        *testing.T
	replies  []reply
	requests []request
}

// wire is what the peer sends for next, answering a request for since.
func (s *scriptedPeer) wire(next reply, since string) []byte {
	body := next.body
	if since != "" {
		body = bytes.Replace(body, []byte(`"since":`+strconv.FormatUint(echoSince, 10)), []byte(`"since":`+since), 1)
	}
	if next.gzip {
		var err error
		if body, err = gzipBytes(body); err != nil {
			s.t.Error(err)
		}
		if next.isize != 0 {
			binary.LittleEndian.PutUint32(body[len(body)-4:], next.isize)
		}
	}
	if next.half {
		body = body[:len(body)/2]
	}
	return body
}

func (s *scriptedPeer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != DeltaPath {
		http.NotFound(w, r)
		return
	}
	s.requests = append(s.requests, request{r.URL.RawQuery, r.Header.Get("If-None-Match")})
	if len(s.replies) == 0 {
		s.t.Error("scripted peer asked for more replies than the script holds")
		http.Error(w, "script exhausted", http.StatusInternalServerError)
		return
	}
	next := s.replies[0]
	s.replies = s.replies[1:]
	if next.etag != "" {
		w.Header().Set("ETag", next.etag)
	}
	if next.notModified {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	body := s.wire(next, r.URL.Query().Get("since"))
	if next.hangUp {
		s.hangUp(w, next, body)
		return
	}
	if next.gzip {
		w.Header().Set("Content-Encoding", "gzip")
	}
	if !next.chunked {
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	}
	w.Write(body)
}

// last is the most recent request the peer saw.
func (s *scriptedPeer) last() request { return s.requests[len(s.requests)-1] }

// hangUp writes the response by hand on the hijacked connection: headers
// declaring all of the unsent body's length, the first part of sent, then a
// close — a peer that dies mid-body.
func (s *scriptedPeer) hangUp(w http.ResponseWriter, next reply, sent []byte) {
	whole := s.wire(reply{body: next.body, gzip: next.gzip}, "")
	conn, rw, err := w.(http.Hijacker).Hijack()
	if err != nil {
		s.t.Error(err)
		return
	}
	defer conn.Close()
	fmt.Fprintf(rw, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n", len(whole))
	if next.gzip {
		rw.WriteString("Content-Encoding: gzip\r\n")
	}
	rw.WriteString("\r\n")
	rw.Write(sent)
	rw.Flush()
}

// wireDelta renders a ?since= reply echoing the request (or, with full, a
// whole table) in the canonical form.
func wireDelta(t *testing.T, tableVersion uint64, full bool, entries []gossippkg.Entry) []byte {
	t.Helper()
	if full {
		return wireSince(t, tableVersion, 0, entries)
	}
	return wireSince(t, tableVersion, echoSince, entries)
}

// wireSince renders a reply of the scripted peer's instance with the given
// since in the canonical form; a zero since is a whole table.
func wireSince(t *testing.T, tableVersion, since uint64, entries []gossippkg.Entry) []byte {
	t.Helper()
	return wireFrom(t, "boot-1", tableVersion, since, entries)
}

// wireFrom is wireSince for a reply that names the given instance.
func wireFrom(t *testing.T, instance string, tableVersion, since uint64, entries []gossippkg.Entry) []byte {
	t.Helper()
	d := gossippkg.Delta{Version: gossippkg.WireVersion, Instance: instance, TableVersion: tableVersion, Since: since, Full: since == 0, Entries: entries}
	body, err := gossippkg.EncodeDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	return append(body, '\n')
}

func hostEntries(net byte, n int, window int) []gossippkg.Entry {
	out := make([]gossippkg.Entry, n)
	for i := range out {
		out[i] = gossippkg.Entry{Prefix: fmt.Sprintf("10.%d.%d.%d/32", net, i/250, 1+i%250), Window: window, Samples: 5, ModVersion: uint64(i + 2)}
	}
	return out
}

// runScript pulls once per reply against a scripted peer and returns the
// agent, its puller, the peer and how many rounds failed.
func runScript(t *testing.T, replies []reply) (a *core.Agent, p *Puller, peer *scriptedPeer, failed int) {
	t.Helper()
	a, _, _ = newTestAgent(t, nil)
	peer = &scriptedPeer{t: t, replies: replies}
	srv := httptest.NewServer(peer)
	t.Cleanup(srv.Close)
	now := time.Unix(1, 0)
	p, err := NewPuller(PullerConfig{
		Agent: a, Peers: []string{srv.URL}, Jitter: -1,
		Now: func() time.Time { now = now.Add(time.Hour); return now }, // every backoff has lapsed by the next round
	})
	if err != nil {
		t.Fatal(err)
	}
	for range replies {
		p.PullOnce(context.Background())
		if !p.Health()[0].Healthy {
			failed++
		}
	}
	return a, p, peer, failed
}

// fleetCounts is what the merges of a puller's life did to its agent.
func fleetCounts(a *core.Agent) [4]uint64 {
	s := a.Stats()
	return [4]uint64{s.FleetMerged, s.FleetSkippedLocal, s.FleetSkippedStale, s.FleetSkippedQuarantined}
}

// TestPullerFaultsNeverMergeStaleScratch: ?since= replies are decoded into a
// slice the puller keeps from round to round, so every way a round can go
// wrong between two good ones is a chance to merge the wrong round's entries.
// After each fault the next good pull must leave the agent — entries and
// merge counts — exactly where a fresh puller ends up that only ever saw the
// replies that merge. first is sized to be kept (a second use of its size) and
// to hold more entries than anything after it, so whatever a later round
// fails to overwrite or truncate is a real entry of an earlier round.
func TestPullerFaultsNeverMergeStaleScratch(t *testing.T) {
	contact := reply{body: wireDelta(t, 1, true, hostEntries(1, 1, 30))}
	firstEntries := append(hostEntries(2, 1500, 40), gossippkg.Entry{Prefix: "10.9.9.9/32", Quarantined: true})
	first := reply{body: wireDelta(t, 50, false, firstEntries), gzip: true}
	// The second good reply overlaps the first (skipped local), adds new
	// destinations, and carries a marker and an unparsable prefix.
	secondEntries := append(hostEntries(2, 20, 41), hostEntries(3, 30, 50)...)
	secondEntries = append(secondEntries,
		gossippkg.Entry{Prefix: "10.9.9.8/32", Quarantined: true},
		gossippkg.Entry{Prefix: "010.0.0.1/32", Window: 20, Samples: 5})
	second := reply{body: wireDelta(t, 60, false, secondEntries)}

	// A valid delta the scanner gives up on after it has already decoded
	// entries — a marker among them, which a merge counts once per copy.
	spaced := wireDelta(t, 55, false, append([]gossippkg.Entry{{Prefix: "10.9.9.7/32", Quarantined: true}}, hostEntries(4, 40, 60)...))
	canonical := reply{body: spaced}
	cut := bytes.LastIndex(spaced, []byte(`{"prefix"`))
	declined := reply{body: append(append(append([]byte(nil), spaced[:cut]...), ' '), spaced[cut:]...)}

	// A good delta padded with the whitespace JSON allows, to one byte past
	// what the puller will read: only the cap stands between it and a merge.
	// Its since is written out (first's table version, the cursor every fault
	// meets), so the peer's echo cannot change its length.
	// Compressed, it is a gzip bomb; the same padded to exactly the cap must
	// merge as its unpadded form does.
	capped := wireSince(t, 56, 50, hostEntries(5, 10, 70))
	overCap := append(append([]byte(nil), capped...), bytes.Repeat([]byte{' '}, maxSnapshotBytes+1-len(capped))...)
	atCap := overCap[:maxSnapshotBytes]
	// A gzipped delta whose trailer lies about its decoded length: the gzip
	// reader checks ISIZE, so either lie fails the round, as it did when the
	// body was decoded as a stream.
	lies := func(isize uint32) reply { return reply{body: canonical.body, gzip: true, isize: isize} }

	// first again, with a validator: the round after it is conditional.
	firstTagged := first
	firstTagged.etag = `"boot-1/50"`
	// A full table from another boot of the peer, and the delta its next
	// round is answered with.
	reboot := reply{body: wireFrom(t, "boot-2", 57, 0, hostEntries(6, 25, 80))}
	secondReboot := reply{body: wireFrom(t, "boot-2", 60, echoSince, secondEntries)}

	for _, tc := range []struct {
		name   string
		lead   *reply // the round before the fault; nil: first
		fault  reply
		merges *reply // what a puller that saw no fault is given in its place; nil: nothing
		after  *reply // the round after the fault; nil: second
		fails  bool
		check  func(t *testing.T, peer *scriptedPeer)
	}{
		{name: "gzip truncated mid-stream", fault: reply{body: first.body, gzip: true, half: true}, fails: true},
		{name: "body cut mid-entry", fault: reply{body: second.body, half: true}, fails: true},
		{name: "peer hangs up mid-body", fault: reply{body: second.body, half: true, hangUp: true}, fails: true},
		{name: "body one byte over the cap", fault: reply{body: overCap, gzip: true}, fails: true},
		{name: "streamed body one byte over the cap", fault: reply{body: overCap, gzip: true, chunked: true}, fails: true},
		{name: "gzip bomb at the cap", fault: reply{body: atCap, gzip: true}, merges: &reply{body: capped}},
		{name: "streamed gzip bomb at the cap", fault: reply{body: atCap, gzip: true, chunked: true}, merges: &reply{body: capped}},
		{name: "ISIZE lying low", fault: lies(1), fails: true},
		{name: "ISIZE lying high", fault: lies(1<<32 - 1), fails: true},
		{name: "body the scanner declines", fault: declined, merges: &canonical},
		{name: "full reply to a since request", fault: reply{body: wireDelta(t, 57, true, hostEntries(6, 25, 80))},
			merges: &reply{body: wireDelta(t, 57, true, hostEntries(6, 25, 80))}},
		// A delta computed against a cursor ahead of the puller's: adopting its
		// table version would skip the entries between the two for good.
		{name: "since that does not echo the cursor", fault: reply{body: wireSince(t, 58, 55, hostEntries(7, 5, 90))}, fails: true},
		// A delta that echoes the cursor but names another boot of the peer:
		// its table version counts another table, so adopting it would
		// skip the entries of ours that it never listed.
		{name: "since reply from another instance", fault: reply{body: wireFrom(t, "boot-2", 59, echoSince, hostEntries(8, 5, 95))}, fails: true},
		// A 304 says "what you named is current"; a request that named
		// nothing cannot be answered with one. The round fails and the
		// cursor stays where first left it.
		{name: "304 to a request with no validator", fault: reply{notModified: true, etag: `"boot-1/50"`}, fails: true,
			check: func(t *testing.T, peer *scriptedPeer) {
				if r := peer.requests[3]; r.ifNoneMatch != "" {
					t.Errorf("the faulted round sent If-None-Match %q", r.ifNoneMatch)
				}
				if r := peer.last(); r.query != "since=50&instance=boot-1" {
					t.Errorf("round after the 304: ?%s, want the cursor first left", r.query)
				}
			}},
		// A good answer with no validator merges, and the round after it
		// cannot be conditional.
		{name: "200 with no ETag", lead: &firstTagged, fault: canonical, merges: &canonical,
			check: func(t *testing.T, peer *scriptedPeer) {
				if r := peer.requests[3]; r.ifNoneMatch != firstTagged.etag {
					t.Errorf("round after a tagged answer sent If-None-Match %q, want %q", r.ifNoneMatch, firstTagged.etag)
				}
				if r := peer.last(); r.ifNoneMatch != "" || r.query != "since=55&instance=boot-1" {
					t.Errorf("round after an untagged answer: ?%s If-None-Match %q, want an unconditional ?since=55", r.query, r.ifNoneMatch)
				}
			}},
		// The peer rebooted: its full table is adopted, cursor and all.
		{name: "full reply from a new instance", fault: reboot, merges: &reboot, after: &secondReboot,
			check: func(t *testing.T, peer *scriptedPeer) {
				if r := peer.last(); r.query != "since=57&instance=boot-2" {
					t.Errorf("round after the reboot: ?%s, want a ?since= on the new instance", r.query)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// first twice (lead is first's size): the second use of a size
			// is the one that keeps the slice for the rounds after it.
			lead, after := first, second
			if tc.lead != nil {
				lead = *tc.lead
			}
			if tc.after != nil {
				after = *tc.after
			}
			got, p, peer, failed := runScript(t, []reply{contact, first, lead, tc.fault, after})
			clean := []reply{contact, first, lead}
			if tc.merges != nil {
				clean = append(clean, *tc.merges)
			}
			want, _, _, cleanFailed := runScript(t, append(clean, after))
			if (failed == 1) != tc.fails || failed > 1 || cleanFailed != 0 {
				t.Fatalf("%d rounds failed with the fault (fault fails its round: %v), %d without", failed, tc.fails, cleanFailed)
			}
			if h := p.Health()[0]; h.Mode != ModeDelta || h.DeltaPulls < 3 {
				t.Fatalf("last round: %+v, want a delta round after at least two others", h)
			}
			if g, w := fleetCounts(got), fleetCounts(want); g != w {
				t.Errorf("merge counts (merged, local, stale, quarantined) = %v, a puller that never saw the fault has %v", g, w)
			}
			if g, w := got.Entries(), want.Entries(); !reflect.DeepEqual(g, w) {
				t.Errorf("agent holds %d entries, a puller that never saw the fault holds %d", len(g), len(w))
			}
			if n := got.Len(); n != 1+1500+30 && tc.merges == nil {
				t.Errorf("agent holds %d entries, the good replies carry %d", n, 1+1500+30)
			}
			if tc.check != nil {
				tc.check(t, peer)
			}
		})
	}

	// The high lie sizes nothing by itself: a few-KB body cannot inflate to
	// 4 GiB, and no body may pass the cap.
	t.Run("ISIZE lying high allocates within the cap", func(t *testing.T) {
		wire := (&scriptedPeer{t: t}).wire(lies(1<<32-1), "")
		resp := &http.Response{
			Header:        http.Header{"Content-Encoding": []string{"gzip"}},
			ContentLength: int64(len(wire)),
			Body:          io.NopCloser(bytes.NewReader(wire)),
		}
		var br bodyReader
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := br.read(resp, maxSnapshotBytes)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatal("a body whose trailer lies about its length decoded")
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > maxSnapshotBytes {
			t.Errorf("reading a %d-byte body allocated %d bytes, past the %d-byte cap", len(wire), n, maxSnapshotBytes)
		}
	})
}

// TestPullerCountsDecodeFallbacks: a delta body that is valid JSON but not in
// the canonical form costs encoding/json — ten times the scanner — every
// round, and nothing showed it. It merges to the same table, and the counter
// says so; canonical bodies leave it at zero, where it is from the start.
func TestPullerCountsDecodeFallbacks(t *testing.T) {
	contact := reply{body: wireDelta(t, 1, true, hostEntries(1, 1, 30))}
	entries := append(hostEntries(2, 50, 40), gossippkg.Entry{Prefix: "2001:db8::1/128", Window: 33, Samples: 2})
	canonical := wireDelta(t, 50, false, entries)
	formatted := strings.NewReplacer(`{"prefix"`, "\n  { \"prefix\"", `,"window":`, `, "window": `).Replace(string(canonical))
	if formatted == string(canonical) {
		t.Fatal("fixture did not reformat")
	}

	const name = "riptide_gossip_decode_fallback"
	fast, _, _, failed := runScript(t, []reply{contact})
	if v, ok := fast.Metrics().Snapshot().Counters[name]; !ok || v != 0 || failed != 0 {
		t.Fatalf("%s = %d (present %v) before any delta, want 0 and present", name, v, ok)
	}
	fast, _, _, _ = runScript(t, []reply{contact, {body: canonical}})
	slow, _, _, failed := runScript(t, []reply{contact, {body: []byte(formatted)}})
	if failed != 0 {
		t.Fatal("the formatted body failed to pull")
	}
	if v := fast.Metrics().Snapshot().Counters[name]; v != 0 {
		t.Errorf("%s = %d after a canonical body, want 0", name, v)
	}
	if v := slow.Metrics().Snapshot().Counters[name]; v != 1 {
		t.Errorf("%s = %d after one formatted body, want 1", name, v)
	}
	if g, w := slow.Entries(), fast.Entries(); !reflect.DeepEqual(g, w) || len(g) != 52 {
		t.Errorf("formatted body merged to %d entries, canonical to %d, want the same 52", len(g), len(w))
	}
	if g, w := fleetCounts(slow), fleetCounts(fast); g != w {
		t.Errorf("merge counts %v after the formatted body, %v after the canonical one", g, w)
	}
}
