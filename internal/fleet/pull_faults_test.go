package fleet

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"reflect"
	"runtime"
	"slices"
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

	// End to end: the refusing client gets a snapshot it can read.
	a, _, _ := newTestAgent(t, []core.Observation{obs(t, "192.0.2.1", 40)})
	req := httptest.NewRequest(http.MethodGet, SnapshotPath, nil)
	req.Header.Set("Accept-Encoding", "identity, gzip;q=0")
	w := httptest.NewRecorder()
	NewServer(a, "host-a", "boot-1", nil).SnapshotHandler().ServeHTTP(w, req)
	if enc := w.Header().Get("Content-Encoding"); enc != "" || !bytes.HasPrefix(w.Body.Bytes(), []byte(`{"version":`)) {
		t.Fatalf("client refusing gzip got Content-Encoding %q, body %.20q", enc, w.Body.Bytes())
	}
}

// reply is one scripted answer of the delta endpoint.
type reply struct {
	// body is the reply's bytes, unless delta is set.
	body []byte
	// delta, when set, is encoded as the peer answers. With echo its Since
	// is the request's own since, as a server echoes the cursor it computed
	// the delta against.
	delta *gossippkg.Delta
	echo  bool
	etag  string // sent as the ETag header when set
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
	if next.delta != nil {
		d := *next.delta
		if next.echo {
			d.Since, _ = strconv.ParseUint(since, 10, 64)
		}
		var err error
		if body, err = gossippkg.EncodeDelta(d); err != nil {
			s.t.Error(err)
		}
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
	since := r.URL.Query().Get("since")
	body := s.wire(next, since)
	if next.hangUp {
		s.hangUp(w, next, since, body)
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

// hangUp writes the response by hand on the hijacked connection: headers
// declaring all of the unsent body's length, the first part of sent, then a
// close — a peer that dies mid-body.
func (s *scriptedPeer) hangUp(w http.ResponseWriter, next reply, since string, sent []byte) {
	next.half = false
	whole := s.wire(next, since)
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

// wireDelta is a ?since= reply of the scripted peer's instance echoing the
// request or, with full, a whole table.
func wireDelta(tableVersion uint64, full bool, entries []gossippkg.Entry) reply {
	return wireFrom("boot-1", tableVersion, 0, full, entries)
}

// wireSince is a reply of the scripted peer's instance whose since is
// written out, not echoed; a zero since is a whole table.
func wireSince(tableVersion, since uint64, entries []gossippkg.Entry) reply {
	return wireFrom("boot-1", tableVersion, since, since == 0, entries)
}

// wireFrom is a reply that names the given instance: a whole table with
// full, else a delta since the given version, or echoing the request's when
// since is 0.
func wireFrom(instance string, tableVersion, since uint64, full bool, entries []gossippkg.Entry) reply {
	d := gossippkg.Delta{Version: gossippkg.WireVersion, Instance: instance, TableVersion: tableVersion, Since: since, Full: full, Entries: entries}
	return reply{delta: &d, echo: !full && since == 0}
}

// encoded is r with its delta encoded into body once and for all, echoing
// nothing: the bytes a fault bends.
func encoded(t *testing.T, r reply) []byte {
	t.Helper()
	body, err := gossippkg.EncodeDelta(*r.delta)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// hostEntries are n host routes of 10.net/16 with ages of one to five
// seconds, so an age a merge launders is seen.
func hostEntries(net byte, n int, window int) []gossippkg.Entry {
	out := make([]gossippkg.Entry, n)
	for i := range out {
		out[i] = gossippkg.Entry{
			Prefix:     fmt.Sprintf("10.%d.%d.%d/32", net, i/250, 1+i%250),
			Window:     window,
			Samples:    5,
			AgeNanos:   int64(1+i%5) * int64(time.Second),
			ModVersion: uint64(i + 2),
		}
	}
	return out
}

// v6Entries are n IPv6 host routes of 2001:db8:net::/48, and a 4-in-6 one
// beside them, with ages of one to five seconds: entries the agent keys
// outside its packed IPv4 index.
func v6Entries(net uint16, n int, window int) []gossippkg.Entry {
	out := make([]gossippkg.Entry, n, n+1)
	for i := range out {
		out[i] = gossippkg.Entry{
			Prefix:     fmt.Sprintf("2001:db8:%x::%x/128", net, i+1),
			Window:     window,
			Samples:    5,
			AgeNanos:   int64(1+i%5) * int64(time.Second),
			ModVersion: uint64(i + 2),
		}
	}
	return append(out, gossippkg.Entry{
		Prefix: fmt.Sprintf("::ffff:10.%d.0.1/128", net), Window: window, Samples: 5, AgeNanos: int64(time.Second), ModVersion: 2,
	})
}

// holds reports whether the agent has an entry for the prefix.
func holds(a *core.Agent, prefix string) bool {
	p := netip.MustParsePrefix(prefix)
	for _, e := range a.Entries() {
		if e.Prefix == p {
			return true
		}
	}
	return false
}

// scriptRun is what pulling once per reply against a scripted peer left.
type scriptRun struct {
	agent  *core.Agent
	puller *Puller
	peer   *scriptedPeer
	// health is the peer's health after each round.
	health []PeerHealth
	failed int
}

// localQuarantine is what the scripted runs' own governor holds in
// quarantine: destinations that replies after the first carry as good
// entries (canonical's, and the full tables').
var localQuarantine = quarantineGovernor{
	netip.MustParsePrefix("10.4.0.3/32"): true,
	netip.MustParsePrefix("10.6.0.5/32"): true,
}

// quarantineGovernor is a local governor that holds a fixed set of
// destinations in quarantine and allows every other.
type quarantineGovernor map[netip.Prefix]bool

func (g quarantineGovernor) ObserveSample(netip.Prefix, core.Observation) {}
func (g quarantineGovernor) ObserveTick(time.Duration)                    {}

func (g quarantineGovernor) Review(dst netip.Prefix, window int) (int, core.GuardAction) {
	if g[dst] {
		return 0, core.GuardQuarantine
	}
	return window, core.GuardAllow
}

func (g quarantineGovernor) Quarantines() []core.Quarantine {
	var out []core.Quarantine
	for p := range g {
		out = append(out, core.Quarantine{Prefix: p})
	}
	return out
}

// advertised is what a script's peer says of each destination: the largest
// window a merge may install for it — the largest it sends, after the
// staleness discount — and the destinations it only ever marks quarantined.
// A body sent as raw bytes counts when it decodes.
func advertised(replies []reply) (windows map[netip.Prefix]int, quarantined map[netip.Prefix]bool) {
	windows, quarantined = map[netip.Prefix]int{}, map[netip.Prefix]bool{}
	carried := map[netip.Prefix]bool{}
	for _, r := range replies {
		var entries []gossippkg.Entry
		if r.delta != nil {
			entries = r.delta.Entries
		} else if d, err := gossippkg.DecodeDelta(r.body); err == nil {
			entries = d.Entries
		}
		for _, e := range entries {
			p, err := netip.ParsePrefix(e.Prefix)
			if err != nil {
				continue
			}
			p = p.Masked()
			windows[p] = max(windows[p], discounted(e.Window, time.Duration(e.AgeNanos)))
			if e.Quarantined {
				quarantined[p] = true
			} else {
				carried[p] = true
			}
		}
	}
	for p := range carried {
		delete(quarantined, p)
	}
	return windows, quarantined
}

// discounted is the window a merge installs from an advertised one under the
// puller's default policy: the excess over CMin halves every half-life (half
// the agent's TTL) of the entry's age, and the result is clamped.
func discounted(window int, age time.Duration) int {
	w := float64(window)
	if age > 0 && window > core.DefaultCMin {
		w = float64(core.DefaultCMin) + float64(window-core.DefaultCMin)*math.Exp2(-float64(age)/float64(core.DefaultTTL/2))
	}
	return min(max(int(math.Round(w)), core.DefaultCMin), core.DefaultCMax)
}

// runScript pulls once per reply against a scripted peer, into an agent whose
// governor holds localQuarantine. After every round it holds the agent to
// the merge's invariants: an entry's age is what it inherited from the wire,
// and no later pull makes it younger; no installed window exceeds what the
// peer advertised for the destination, after the staleness discount; and no
// destination quarantined here, or only ever marked quarantined by the peer,
// is installed.
func runScript(t *testing.T, replies []reply) scriptRun {
	t.Helper()
	a, err := core.New(core.Config{Sampler: &stubSampler{}, Routes: newMemRoutes(), Clock: (&simClock{}).Now, Guard: localQuarantine})
	if err != nil {
		t.Fatal(err)
	}
	windows, quarantined := advertised(replies)
	peer := &scriptedPeer{t: t, replies: replies}
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
	run := scriptRun{agent: a, puller: p, peer: peer}
	ages := map[netip.Prefix]time.Duration{}
	for i := range replies {
		p.PullOnce(context.Background())
		h := p.Health()[0]
		run.health = append(run.health, h)
		if !h.Healthy {
			run.failed++
		}
		exported, _ := a.ExportDelta(0)
		for _, e := range exported {
			if was, ok := ages[e.Prefix]; ok && e.Age < was {
				t.Fatalf("round %d: %v is %v old, %v before it: a pull laundered its age", i, e.Prefix, e.Age, was)
			}
			ages[e.Prefix] = e.Age
			if e.Quarantined {
				continue // a marker of the local governor's
			}
			if w, ok := windows[e.Prefix]; !ok || e.Window > w {
				t.Fatalf("round %d: %v installed at window %d; the peer advertised at most %d after the discount (any: %v)", i, e.Prefix, e.Window, w, ok)
			}
			if localQuarantine[e.Prefix] || quarantined[e.Prefix] {
				t.Fatalf("round %d: %v is installed, though quarantined (here: %v)", i, e.Prefix, localQuarantine[e.Prefix])
			}
		}
	}
	return run
}

// last is the most recent request the peer saw.
func (s *scriptedPeer) last() request { return s.requests[len(s.requests)-1] }

// checkFault holds a scripted run whose fourth round met a fault to a run
// of the replies that merge. A fault that fails its round (fails says what
// its error reads) shows in the peer's health and leaves the cursor where it
// was; mergesNothing says the fault's run holds the good replies' entries
// alone.
func checkFault(t *testing.T, run, clean scriptRun, fails string, mergesNothing bool) {
	t.Helper()
	if want := min(len(fails), 1); run.failed != want || clean.failed != 0 {
		t.Fatalf("%d rounds failed with the fault (want %d), %d without: %+v", run.failed, want, clean.failed, run.health[3])
	}
	if fails != "" {
		if h := run.health[3]; h.Healthy || h.FailedPulls != 1 || !strings.Contains(h.LastError, fails) {
			t.Errorf("faulted round left health %+v, want a failure saying %q", h, fails)
		}
		if f, next := run.peer.requests[3], run.peer.requests[4]; f != next {
			t.Errorf("the round after the fault asked ?%s If-None-Match %q, the faulted round ?%s %q: the cursor moved",
				next.query, next.ifNoneMatch, f.query, f.ifNoneMatch)
		}
	}
	if h := run.health[4]; h.Mode != ModeDelta || h.DeltaPulls < 3 {
		t.Fatalf("last round: %+v, want a delta round after at least two others", h)
	}
	if g, w := fleetCounts(run.agent), fleetCounts(clean.agent); g != w {
		t.Errorf("merge counts (merged, local, stale, quarantined) = %v, a puller that never saw the fault has %v", g, w)
	}
	if g, w := run.agent.Entries(), clean.agent.Entries(); !reflect.DeepEqual(g, w) {
		t.Errorf("agent holds %d entries, a puller that never saw the fault holds %d", len(g), len(w))
	}
	if n := run.agent.Len(); n != 1+1500+30 && mergesNothing {
		t.Errorf("agent holds %d entries, the good replies carry %d", n, 1+1500+30)
	}
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
// replies that merge. A fault that fails its round must also show in the
// peer's health and leave the cursor where it was: the round after it asks
// exactly what the faulted one asked. first is sized to be kept (a second use
// of its size) and to hold more entries than anything after it, so whatever
// a later round fails to overwrite or truncate is a real entry of an earlier
// round.
func TestPullerFaultsNeverMergeStaleScratch(t *testing.T) {
	contact := wireDelta(1, true, hostEntries(1, 1, 30))
	// Its two markers: a bare one, and one that carries a window, which a
	// merge must not take for an entry.
	first := wireDelta(50, false, append(hostEntries(2, 1500, 40),
		gossippkg.Entry{Prefix: "10.9.9.9/32", Quarantined: true},
		gossippkg.Entry{Prefix: "10.9.9.6/32", Quarantined: true, Window: 90, Samples: 5, AgeNanos: int64(time.Second)}))
	// The second good reply overlaps the first (skipped local), adds new
	// destinations, and carries a marker and an unparsable prefix.
	secondEntries := append(hostEntries(2, 20, 41), hostEntries(3, 30, 50)...)
	secondEntries = append(secondEntries,
		gossippkg.Entry{Prefix: "10.9.9.8/32", Quarantined: true},
		gossippkg.Entry{Prefix: "010.0.0.1/32", Window: 20, Samples: 5})
	second := wireDelta(60, false, secondEntries)

	// A good delta with a marker, which a merge counts once per copy.
	canonical := wireDelta(55, false, append([]gossippkg.Entry{{Prefix: "10.9.9.7/32", Quarantined: true}}, hostEntries(4, 40, 60)...))
	// Its bytes as the fault rounds meet them: a since written out as first's
	// table version, the cursor every fault meets.
	sinceFirst := encoded(t, wireSince(55, 50, canonical.delta.Entries))

	// A good delta whose source name pads it to exactly the cap, and the same
	// one byte longer: only the cap stands between the second and a merge.
	// Compressed, each is a gzip bomb.
	padded := func(size int) []byte {
		d := *wireSince(56, 50, hostEntries(5, 10, 70)).delta
		body := encoded(t, reply{delta: &d})
		for len(body) != size { // the source's length varint grows with it
			d.Source = strings.Repeat("s", len(d.Source)+size-len(body))
			body = encoded(t, reply{delta: &d})
		}
		return body
	}
	atCap, overCap := padded(maxSnapshotBytes), padded(maxSnapshotBytes+1)
	// A gzipped delta whose trailer lies about its decoded length.
	lies := func(isize uint32) reply { return reply{body: sinceFirst, gzip: true, isize: isize} }
	// A header that claims more entries than its body holds: the count's
	// one byte (its last, a table of none) replaced by a count of 2^40.
	noEntries := encoded(t, wireSince(57, 50, nil))
	tooMany := binary.AppendUvarint(slices.Clone(noEntries[:len(noEntries)-1]), 1<<40)
	tooMany = append(tooMany, sinceFirst[len(noEntries):]...)
	// The wire version byte follows the magic.
	future := slices.Clone(sinceFirst)
	future[4] = gossippkg.WireVersion + 1

	// A whole table where a delta was asked for.
	fullTable := wireDelta(57, true, hostEntries(6, 25, 80))

	// first again, with a validator: the round after it is conditional.
	firstTagged := first
	firstTagged.etag = `"boot-1/50"`
	// A full table from another boot of the peer, and the delta its next
	// round is answered with.
	reboot := wireFrom("boot-2", 57, 0, true, hostEntries(6, 25, 80))
	secondReboot := wireFrom("boot-2", 60, 0, false, secondEntries)

	// A peer whose clock is skewed stamps ages no honest table holds:
	// negative (its clock jumped back) or past MaxAge (the agent's TTL
	// here). The entries beside them are good, IPv4 and IPv6.
	skew := func(age time.Duration) (reply, func(*testing.T, scriptRun)) {
		good, bad := v6Entries(8, 20, 60), append(hostEntries(7, 5, 90), v6Entries(7, 5, 90)...)
		for i := range bad {
			bad[i].AgeNanos = int64(age)
		}
		return wireDelta(58, false, append(slices.Clone(good), bad...)), func(t *testing.T, run scriptRun) {
			for _, e := range bad {
				if holds(run.agent, e.Prefix) {
					t.Errorf("merged %s, %v old", e.Prefix, age)
				}
			}
			for _, e := range good {
				if !holds(run.agent, e.Prefix) {
					t.Errorf("the good entry %s beside the skewed ones was not merged", e.Prefix)
				}
			}
			if got, want := run.agent.Stats().FleetSkippedStale, uint64(len(bad)+1); got != want {
				t.Errorf("%d entries skipped stale, want the %d skewed ones and the next round's unparsable prefix", got, want)
			}
		}
	}
	skewBack, checkBack := skew(-5 * time.Second)
	skewAhead, checkAhead := skew(core.DefaultTTL + time.Second)

	for _, tc := range []struct {
		name   string
		lead   *reply // the round before the fault; nil: first
		fault  reply
		merges *reply // what a puller that saw no fault is given in its place; nil: nothing
		after  *reply // the round after the fault; nil: second
		fails  string // what the failed round's error says; "": the round succeeds
		check  func(t *testing.T, run scriptRun)
	}{
		{name: "body cut mid-entry", fault: reply{body: encoded(t, wireSince(60, 50, secondEntries)), half: true}, fails: "riptide/gossip"},
		{name: "peer hangs up mid-body", fault: reply{body: sinceFirst, half: true, hangUp: true}, fails: "EOF"},
		{name: "body one byte over the cap", fault: reply{body: overCap}, fails: "exceeds"},
		{name: "streamed body one byte over the cap", fault: reply{body: overCap, chunked: true}, fails: "exceeds"},
		{name: "body at the cap", fault: reply{body: atCap}, merges: &reply{body: atCap}},
		// A body under a content coding is a peer on the old wire, which
		// gzipped its JSON, or a broken one: refused before it is read,
		// whatever it would inflate to.
		{name: "gzip truncated mid-stream", fault: reply{delta: first.delta, echo: true, gzip: true, half: true}, fails: "gzip"},
		{name: "gzip bomb at the cap", fault: reply{body: atCap, gzip: true}, fails: "gzip"},
		{name: "streamed gzip bomb at the cap", fault: reply{body: atCap, gzip: true, chunked: true}, fails: "gzip"},
		{name: "ISIZE lying low", fault: lies(1), fails: "gzip"},
		{name: "ISIZE lying high", fault: lies(1<<32 - 1), fails: "gzip"},
		// A peer that has not been upgraded answers in the JSON of wire
		// version 1; the error says so.
		{name: "JSON body from a peer on wire version 1", fault: reply{body: []byte(`{"version":1,"instance":"boot-1","tableVersion":55,"since":50,"entries":[` +
			`{"prefix":"10.4.0.1/32","window":60,"samples":5,"ageNanos":1000000000,"modVersion":2}]}` + "\n")}, fails: "wire version 1"},
		{name: "unknown wire version", fault: reply{body: future}, fails: "wire version 3"},
		{name: "entry count past what the body holds", fault: reply{body: tooMany}, fails: "claims 1099511627776 entries"},
		{name: "trailing bytes", fault: reply{body: append(slices.Clone(sinceFirst), 0)}, fails: "follow"},
		{name: "full reply to a since request", fault: fullTable, merges: &fullTable},
		// A delta computed against a cursor ahead of the puller's: adopting its
		// table version would skip the entries between the two for good.
		{name: "since that does not echo the cursor", fault: wireSince(58, 55, hostEntries(7, 5, 90)), fails: "does not echo"},
		// A delta that echoes the cursor but names another boot of the peer:
		// its table version counts another table, so adopting it would
		// skip the entries of ours that it never listed.
		{name: "since reply from another instance", fault: wireFrom("boot-2", 59, 0, false, hostEntries(8, 5, 95)), fails: "cannot answer"},
		// A delta that echoes the cursor from a table behind it: no table
		// the cursor came from can be at that version.
		{name: "since newer than the peer's own table version", fault: wireFrom("boot-1", 45, 0, false, hostEntries(8, 5, 95)), fails: "cannot answer"},
		// A 304 says "what you named is current"; a request that named
		// nothing cannot be answered with one.
		{name: "304 to a request with no validator", fault: reply{notModified: true, etag: `"boot-1/50"`}, fails: "304",
			check: func(t *testing.T, run scriptRun) {
				if r := run.peer.requests[3]; r.ifNoneMatch != "" {
					t.Errorf("the faulted round sent If-None-Match %q", r.ifNoneMatch)
				}
			}},
		// A 304 whose ETag is not the one the request named answers some
		// other validator — a stale cache in the way, or a broken peer —
		// and says nothing about the table the cursor describes.
		{name: "304 answering a stale ETag", lead: &firstTagged, fault: reply{notModified: true, etag: `"boot-1/55"`}, fails: "304",
			check: func(t *testing.T, run scriptRun) {
				if r := run.peer.requests[3]; r.ifNoneMatch != firstTagged.etag {
					t.Errorf("the faulted round sent If-None-Match %q, want %q", r.ifNoneMatch, firstTagged.etag)
				}
			}},
		// A good answer with no validator merges, and the round after it
		// cannot be conditional.
		{name: "200 with no ETag", lead: &firstTagged, fault: canonical, merges: &canonical,
			check: func(t *testing.T, run scriptRun) {
				if r := run.peer.requests[3]; r.ifNoneMatch != firstTagged.etag {
					t.Errorf("round after a tagged answer sent If-None-Match %q, want %q", r.ifNoneMatch, firstTagged.etag)
				}
				if r := run.peer.last(); r.ifNoneMatch != "" || r.query != "since=55&instance=boot-1" {
					t.Errorf("round after an untagged answer: ?%s If-None-Match %q, want an unconditional ?since=55", r.query, r.ifNoneMatch)
				}
			}},
		{name: "clock-skewed ages, negative", fault: skewBack, merges: &skewBack, check: checkBack},
		{name: "clock-skewed ages, past MaxAge", fault: skewAhead, merges: &skewAhead, check: checkAhead},
		// The peer rebooted: its full table is adopted, cursor and all.
		{name: "full reply from a new instance", fault: reboot, merges: &reboot, after: &secondReboot,
			check: func(t *testing.T, run scriptRun) {
				if r := run.peer.last(); r.query != "since=57&instance=boot-2" {
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
			clean := []reply{contact, first, lead}
			if tc.merges != nil {
				clean = append(clean, *tc.merges)
			}
			run := runScript(t, []reply{contact, first, lead, tc.fault, after})
			checkFault(t, run, runScript(t, append(clean, after)), tc.fails, tc.merges == nil)
			if tc.check != nil {
				tc.check(t, run)
			}
		})
	}

	// Every prefix of a good body is a body cut short, and each must fail on
	// its own, merging nothing and moving no cursor; the good body after
	// them all merges as if none had come.
	t.Run("body cut at every byte offset", func(t *testing.T) {
		whole := encoded(t, wireSince(60, 50, secondEntries))
		script := []reply{contact, first, first}
		for cut := range len(whole) {
			script = append(script, reply{body: whole[:cut]})
		}
		run := runScript(t, append(script, second))
		want := runScript(t, []reply{contact, first, first, second})
		if run.failed != len(whole) || want.failed != 0 {
			t.Fatalf("%d rounds failed for %d cut bodies (%d without them)", run.failed, len(whole), want.failed)
		}
		for i, r := range run.peer.requests[3 : 3+len(whole)+1] {
			if r != run.peer.requests[3] {
				t.Fatalf("round %d after the cuts began asked ?%s If-None-Match %q, the first cut's round ?%s", i, r.query, r.ifNoneMatch, run.peer.requests[3].query)
			}
		}
		if g, w := fleetCounts(run.agent), fleetCounts(want.agent); g != w {
			t.Errorf("merge counts = %v after the cuts, %v without", g, w)
		}
		if g, w := run.agent.Entries(), want.agent.Entries(); !reflect.DeepEqual(g, w) {
			t.Errorf("agent holds %d entries after the cuts, %d without", len(g), len(w))
		}
	})

	// A peer whose instance remints every round. Answering a cursor on an
	// instance it no longer is with a delta, it fails every round on its
	// own: nothing merged, the cursor where it was, one failed pull each.
	// Answering with its whole table, as a server does for a cursor it
	// cannot use, it is adopted every round, the cursor following it.
	t.Run("peer whose instance remints every round", func(t *testing.T) {
		const n = 3
		script := []reply{contact, first, first}
		for k := range n {
			script = append(script, wireFrom(fmt.Sprintf("boot-%d", 2+k), 58+uint64(k), 0, false, v6Entries(uint16(10+k), 10, 70)))
		}
		var fulls []reply
		for k := range n {
			fulls = append(fulls, wireFrom(fmt.Sprintf("boot-%d", 2+n+k), 70+uint64(k), 0, true, v6Entries(uint16(20+k), 10+5*k, 75)))
		}
		run := runScript(t, append(script, fulls...))
		want := runScript(t, append([]reply{contact, first, first}, fulls...))
		for k, h := range run.health[3 : 3+n] {
			if h.Healthy || h.FailedPulls != uint64(1+k) || !strings.Contains(h.LastError, "cannot answer") {
				t.Errorf("reminted delta %d left health %+v, want failed pull %d saying %q", k, h, 1+k, "cannot answer")
			}
		}
		for i, r := range run.peer.requests[3 : 3+n+1] {
			if r != run.peer.requests[3] {
				t.Errorf("round %d after the reminted deltas began asked ?%s, the first of them ?%s: the cursor moved", i, r.query, run.peer.requests[3].query)
			}
		}
		for k, h := range run.health[3+n:] {
			if !h.Healthy || h.Mode != ModeFull || h.FailedPulls != n {
				t.Errorf("reminted full table %d left health %+v, want an adopted full table", k, h)
			}
			if k+1 < n {
				if r, w := run.peer.requests[3+n+k+1].query, fmt.Sprintf("since=%d&instance=boot-%d", 70+k, 2+n+k); r != w {
					t.Errorf("round after reminted full table %d asked ?%s, want ?%s", k, r, w)
				}
			}
		}
		if g, w := fleetCounts(run.agent), fleetCounts(want.agent); g != w {
			t.Errorf("merge counts = %v after the reminted deltas, %v without", g, w)
		}
		if g, w := run.agent.Entries(), want.agent.Entries(); !reflect.DeepEqual(g, w) {
			t.Errorf("agent holds %d entries after the reminted deltas, %d without", len(g), len(w))
		}
		for _, f := range fulls {
			for _, e := range f.delta.Entries {
				if !holds(run.agent, e.Prefix) {
					t.Fatalf("%s of a reminted full table was not merged", e.Prefix)
				}
			}
		}
	})

	// A compressed body sizes nothing: the puller refuses it before
	// reading, whatever its trailer claims.
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
		_, err := br.read(resp, maxSnapshotBytes)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatal("a gzipped body was read")
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > maxSnapshotBytes {
			t.Errorf("reading a %d-byte body allocated %d bytes, past the %d-byte cap", len(wire), n, maxSnapshotBytes)
		}
	})
}
