package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/caisplatform/caisp/internal/core"
	"github.com/caisplatform/caisp/internal/correlate"
	"github.com/caisplatform/caisp/internal/dashboard"
	"github.com/caisplatform/caisp/internal/feed"
	"github.com/caisplatform/caisp/internal/heuristic"
	"github.com/caisplatform/caisp/internal/mesh"
	"github.com/caisplatform/caisp/internal/misp"
	"github.com/caisplatform/caisp/internal/obs"
	"github.com/caisplatform/caisp/internal/storage"
	"github.com/caisplatform/caisp/internal/tip"
	"github.com/caisplatform/caisp/internal/wsock"
)

// quietLogger keeps the platform's warnings and errors on standard error,
// where they explain a failed check or set-up, and drops its info chatter,
// so standard output stays the benchmark's own.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))
}

// listen serves h on a loopback port.
func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr().String(), nil
}

// pollClient is the platform's feed HTTP client: at most nproc
// connections, so feed polls run at most nproc at a time.
func pollClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n},
	}
}

// httpFeeds points the pools' feed definitions at the feed server.
func httpFeeds(gen *feedServer, poll time.Duration, client *http.Client) []feed.Feed {
	out := make([]feed.Feed, len(gen.pools))
	for i, p := range gen.pools {
		f := p.feed
		f.Fetcher = &feed.HTTPFetcher{URL: gen.url(i), Client: client}
		f.Interval = poll
		out[i] = f
	}
	return out
}

// origin is core.Platform as cmd/caispd assembles it, with its dashboard
// (plus subscriptions) and TIP REST API on loopback listeners.
type origin struct {
	p        *core.Platform
	dashSrv  *http.Server
	tipSrv   *http.Server
	dashAddr string
	tipAddr  string
}

func startOrigin(cfg core.Config, flush time.Duration) (*origin, error) {
	p, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	o := &origin{p: p}
	if o.dashSrv, o.dashAddr, err = listen(p.Dashboard()); err != nil {
		p.Close()
		return nil, err
	}
	if o.tipSrv, o.tipAddr, err = listen(tip.NewAPI(p.TIP(), "")); err != nil {
		o.close()
		return nil, err
	}
	if err := p.Start(context.Background(), flush); err != nil {
		o.close()
		return nil, err
	}
	return o, nil
}

func (o *origin) close() {
	if o.dashSrv != nil {
		_ = o.dashSrv.Close()
	}
	if o.tipSrv != nil {
		_ = o.tipSrv.Close()
	}
	_ = o.p.Close()
}

// importRecord is one event revision the peer imported.
type importRecord struct {
	at    time.Time
	event *misp.Event
}

// timedLocal is the peer's mesh.Local: the TIP service, with the moment
// each batch of replicated events landed recorded for replication latency.
type timedLocal struct {
	*tip.Service
	mu      sync.Mutex
	imports []importRecord
}

func (l *timedLocal) AddEvents(events []*misp.Event) ([]*misp.Event, error) {
	stored, err := l.Service.AddEvents(events)
	at := time.Now()
	l.mu.Lock()
	for _, e := range stored {
		l.imports = append(l.imports, importRecord{at: at, event: e})
	}
	l.mu.Unlock()
	return stored, err
}

func (l *timedLocal) takeImports() []importRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.imports
	l.imports = nil
	return out
}

// peer is a second TIP node like cmd/tipd: a TIP service over its own
// store plus a mesh engine pulling the origin's change feed.
type peer struct {
	store *storage.Store
	local *timedLocal
	mesh  *mesh.Engine
	reg   *obs.Registry
	prov  *obs.ProvTable
}

// newPeer opens the peer's store in dir ("" for memory). A peer opened
// on a copy of the origin's history already holds everything up to the
// store's own sequence, so its mesh cursor starts there.
func newPeer(dir string) (*peer, error) {
	reg := obs.NewRegistry()
	store, err := storage.Open(dir, storage.WithMetrics(reg))
	if err != nil {
		return nil, err
	}
	prov := obs.NewProvTable(obs.DefaultProvCap)
	svc := tip.NewService(store, tip.WithName("peer"), tip.WithMetrics(reg),
		tip.WithProvenance(prov), tip.WithLogger(quietLogger()))
	return &peer{store: store, local: &timedLocal{Service: svc}, reg: reg, prov: prov}, nil
}

// connect builds the peer's mesh engine against the origin's TIP API;
// start runs its background pull every interval, otherwise the caller
// drives SyncOnce.
func (p *peer) connect(originTIP string, interval time.Duration, start bool) error {
	cursors := mesh.NewMemCursors()
	if err := cursors.Save(map[string]mesh.Cursor{"origin": {Seq: p.store.Seq()}}); err != nil {
		return err
	}
	eng, err := mesh.New(p.local, []mesh.Peer{{Name: "origin", Remote: tip.NewClient("http://"+originTIP, "")}},
		cursors, mesh.WithInterval(interval), mesh.WithMetrics(p.reg),
		mesh.WithProvenance("peer", p.prov), mesh.WithTracer(obs.NewTracer(p.reg)),
		mesh.WithLogger(quietLogger()))
	if err != nil {
		return err
	}
	p.mesh = eng
	if start {
		eng.Start()
	}
	return nil
}

func (p *peer) close() {
	if p.mesh != nil {
		p.mesh.Close()
	}
	_ = p.store.Close()
}

// frame is one WebSocket message with the moment it was read.
type frame struct {
	at   time.Time
	data []byte
}

// wsReader reads one WebSocket and hands every message, stamped on
// arrival, to a channel; decoding happens elsewhere so it never delays the
// next read.
type wsReader struct {
	conn   *wsock.Conn
	frames chan frame
	done   chan struct{}
}

func dialWS(rawURL string) (*wsReader, error) {
	c, err := wsock.Dial(rawURL)
	if err != nil {
		return nil, err
	}
	// The buffer absorbs bursts while the resolver looks frames up; the
	// reader blocks (and the hub's queue fills) only past it.
	r := &wsReader{conn: c, frames: make(chan frame, 4096), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		defer close(r.frames)
		for {
			_, data, err := c.ReadMessage()
			if err != nil {
				return
			}
			r.frames <- frame{at: time.Now(), data: data}
		}
	}()
	return r, nil
}

func (r *wsReader) close() {
	_ = r.conn.Close()
	<-r.done
}

// sinks holds what the two sockets received and the latencies resolved
// from them.
type sinks struct {
	gen    *feedServer
	lookup func(uuid string) (*misp.Event, error)

	mu          sync.Mutex
	riocScore   map[string]float64 // dashboard key → score of the last frame
	riocFrames  int
	matchFrames int
	snapshots   int // dashboard connect snapshots received
	hellos      int // match-stream greetings received
	matches     int64
	unresolved  int
	gapMS       []float64            // read time minus push stamp, match frames
	seqRead     map[uint64]time.Time // dashboard revision → frame read

	dashLat  samples
	matchLat samples
	wg       sync.WaitGroup
}

func newSinks(gen *feedServer, lookup func(string) (*misp.Event, error)) *sinks {
	return &sinks{gen: gen, lookup: lookup, riocScore: make(map[string]float64),
		seqRead: make(map[uint64]time.Time)}
}

// attach consumes a dashboard and a match socket until they close.
func (s *sinks) attach(dash, matches *wsReader) {
	s.wg.Add(2)
	go func() {
		defer s.wg.Done()
		for f := range dash.frames {
			s.onDashboard(f)
		}
	}()
	go func() {
		defer s.wg.Done()
		for f := range matches.frames {
			s.onMatch(f)
		}
	}()
}

func (s *sinks) onDashboard(f frame) {
	var ev struct {
		dashboard.Event
		RIoCs []heuristic.RIoC `json:"riocs"`
	}
	if err := json.Unmarshal(f.data, &ev); err != nil {
		return
	}
	if ev.Kind == "snapshot" {
		s.mu.Lock()
		s.snapshots++
		for _, r := range ev.RIoCs {
			if _, ok := s.riocScore[r.EventUUID+"\x00"+r.ID]; !ok {
				s.riocScore[r.EventUUID+"\x00"+r.ID] = r.ThreatScore
			}
		}
		s.mu.Unlock()
		return
	}
	if ev.Kind != "rioc" || ev.RIoC == nil {
		return // alarm
	}
	r := ev.RIoC
	s.mu.Lock()
	s.riocFrames++
	s.riocScore[r.EventUUID+"\x00"+r.ID] = r.ThreatScore
	s.seqRead[ev.Seq] = f.at
	s.mu.Unlock()
	s.resolve(r.EventUUID, r.GeneratedAt, f.at, &s.dashLat)
}

func (s *sinks) onMatch(f frame) {
	// Only the header is decoded; matches are counted by their key, which
	// keeps the client cheap on frames carrying hundreds of matches.
	var ev struct {
		Kind           string `json:"kind"`
		Event          string `json:"event_uuid"`
		PushedUnixNano int64  `json:"pushed_unix_nano"`
	}
	if err := json.Unmarshal(f.data, &ev); err != nil {
		return
	}
	if ev.Kind == "hello" {
		s.mu.Lock()
		s.hellos++
		s.mu.Unlock()
		return
	}
	if ev.Kind != "match" {
		return
	}
	pushed := time.Unix(0, ev.PushedUnixNano)
	s.mu.Lock()
	s.matchFrames++
	s.matches += int64(bytes.Count(f.data, []byte(`"subscription_id":`)))
	s.gapMS = append(s.gapMS, float64(f.at.Sub(pushed))/float64(time.Millisecond))
	s.mu.Unlock()
	s.resolve(ev.Event, pushed, f.at, &s.matchLat)
}

// resolve turns one delivered result into a latency: from the first
// serve of the newest member record the result could contain (served no
// later than bound, the moment the result was produced) to readAt.
func (s *sinks) resolve(uuid string, bound, readAt time.Time, into *samples) {
	newest, ok := newestServed(s.gen, s.lookup, uuid, bound)
	if !ok {
		s.mu.Lock()
		s.unresolved++
		s.mu.Unlock()
		return
	}
	into.add(readAt.Sub(newest))
}

// newestServed finds the latest first-serve time, no later than bound,
// among the member records of stored event uuid.
func newestServed(gen *feedServer, lookup func(string) (*misp.Event, error), uuid string, bound time.Time) (time.Time, bool) {
	e, err := lookup(uuid)
	if err != nil {
		return time.Time{}, false
	}
	return newestMember(gen, e, bound)
}

// newestMember reads the members off the cluster's attributes: their
// values are canonical, and the cluster's category completes the key. A
// map lookup per attribute keeps the resolver cheap on clusters of
// thousands of members.
func newestMember(gen *feedServer, e *misp.Event, bound time.Time) (time.Time, bool) {
	category := correlate.CategoryOf(e)
	var newest time.Time
	for i := range e.Attributes {
		if t, ok := gen.served(recordKey(category, e.Attributes[i].Value)); ok && !t.After(bound) && t.After(newest) {
			newest = t
		}
	}
	return newest, !newest.IsZero()
}

// frames reports how many rIoC and match frames arrived.
func (s *sinks) frames() (rioc, match int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.riocFrames, s.matchFrames
}

// greeted reports whether both sockets delivered their greeting.
func (s *sinks) greeted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshots > 0 && s.hellos > 0
}

type sinkCounts struct {
	riocFrames, matchFrames, unresolved int
	matches                             int64
	riocScore                           map[string]float64
	gapMS                               []float64
	seqRead                             map[uint64]time.Time
}

func (s *sinks) counts() sinkCounts {
	s.mu.Lock()
	defer s.mu.Unlock()
	scores := make(map[string]float64, len(s.riocScore))
	for k, v := range s.riocScore {
		scores[k] = v
	}
	seqRead := make(map[uint64]time.Time, len(s.seqRead))
	for k, v := range s.seqRead {
		seqRead[k] = v
	}
	return sinkCounts{riocFrames: s.riocFrames, matchFrames: s.matchFrames,
		unresolved: s.unresolved, matches: s.matches, riocScore: scores,
		gapMS: append([]float64(nil), s.gapMS...), seqRead: seqRead}
}

// analyst is one REST client of the origin's TIP API cycling through
// paged listing, search by value and fetch by UUID, in a closed loop: the
// next request goes out think after the previous one answered. Each
// request is timed from its send to the end of its response.
type analyst struct {
	base   string
	client *http.Client
	gen    *feedServer
	think  time.Duration

	lat      samples
	attempts atomic.Int64
	failures atomic.Int64

	since, after string
	lastUUID     string
}

func newAnalyst(tipAddr string, gen *feedServer, think time.Duration) *analyst {
	return &analyst{
		base: "http://" + tipAddr, gen: gen, think: think,
		client: &http.Client{Timeout: 10 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
	}
}

// run issues requests until stop closes.
func (a *analyst) run(stop <-chan struct{}) {
	for i := 0; ; i++ {
		if a.think > 0 {
			select {
			case <-stop:
				return
			case <-time.After(a.think):
			}
		}
		select {
		case <-stop:
			return
		default:
		}
		sent := time.Now()
		a.attempts.Add(1)
		if err := a.request(i); err != nil {
			a.failures.Add(1)
			fmt.Fprintln(os.Stderr, "analyst:", err)
			continue
		}
		a.lat.add(time.Since(sent))
	}
}

func (a *analyst) request(i int) error {
	switch i % 3 {
	case 0:
		return a.page()
	case 1:
		body := fmt.Sprintf(`{"value":%q}`, a.gen.servedValue(i*7919))
		_, err := a.do(http.MethodPost, "/events/search", strings.NewReader(body), http.StatusOK)
		return err
	default:
		if a.lastUUID == "" {
			return a.page()
		}
		// An event expired or merged since the listing answers 404, which
		// is the correct answer, not a failure.
		_, err := a.do(http.MethodGet, "/events/"+a.lastUUID, nil, http.StatusOK, http.StatusNotFound)
		return err
	}
}

// page fetches the next page of GET /events, wrapping to the start after
// the last one.
func (a *analyst) page() error {
	q := url.Values{"limit": {"20"}}
	if a.after != "" {
		q.Set("since", a.since)
		q.Set("after", a.after)
	}
	resp, err := a.do(http.MethodGet, "/events?"+q.Encode(), nil, http.StatusOK)
	if err != nil {
		return err
	}
	var page []misp.Wrapped
	if err := json.Unmarshal(resp.body, &page); err != nil {
		return fmt.Errorf("decode page: %w", err)
	}
	if resp.more != "true" || len(page) == 0 {
		a.since, a.after = "", ""
		return nil
	}
	last := page[len(page)-1].Event
	a.since = last.Timestamp.Time.UTC().Format(time.RFC3339)
	a.after = last.UUID
	a.lastUUID = page[len(page)/2].Event.UUID
	return nil
}

type response struct {
	body []byte
	more string
}

func (a *analyst) do(method, path string, body io.Reader, ok ...int) (response, error) {
	req, err := http.NewRequest(method, a.base+path, body)
	if err != nil {
		return response{}, err
	}
	resp, err := a.client.Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return response{}, fmt.Errorf("%s %s: %w", method, path, err)
	}
	for _, code := range ok {
		if resp.StatusCode == code {
			return response{body: data, more: resp.Header.Get(tip.MoreHeader)}, nil
		}
	}
	return response{}, fmt.Errorf("%s %s: status %d", method, path, resp.StatusCode)
}
