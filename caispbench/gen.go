package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/caisplatform/caisp/internal/feed"
	"github.com/caisplatform/caisp/internal/feedgen"
	"github.com/caisplatform/caisp/internal/normalize"
)

// record is one normalized indicator a feed item yields: its canonical
// value and its key — category and value, which is how a stored
// cluster's attributes name their members.
type record struct{ value, key string }

func recordKey(category, value string) string { return category + "\x00" + value }

// feedPool is one feedgen feed cut into items (a line, or one element of a
// JSON array), so the server can publish any window of it as a complete
// feed document.
type feedPool struct {
	feed   feed.Feed // name, category and parser; the fetcher is replaced
	header []byte    // leading line of a line format; nil for JSON arrays
	items  [][]byte
	recs   [][]record // records each item yields once parsed and normalized
}

// feedgenRates are caispd's synthetic-feed rates.
func feedgenConfig(seed int64, items int) feedgen.Config {
	return feedgen.Config{Seed: seed, Items: items,
		DuplicationRate: 0.2, OverlapRate: 0.15, DefangRate: 0.3}
}

// buildPools generates the six feedgen feeds with items records each and
// splits every document into items.
func buildPools(cfg feedgen.Config) ([]*feedPool, error) {
	gen := feedgen.New(cfg)
	docs, err := gen.Documents()
	if err != nil {
		return nil, err
	}
	feeds, err := gen.Feeds(time.Second)
	if err != nil {
		return nil, err
	}
	pools := make([]*feedPool, 0, len(feeds))
	for _, f := range feeds {
		p := &feedPool{feed: f}
		doc := docs[f.Name]
		if len(doc) > 0 && doc[0] == '[' {
			var raw []json.RawMessage
			if err := json.Unmarshal(doc, &raw); err != nil {
				return nil, fmt.Errorf("split %s: %w", f.Name, err)
			}
			for _, r := range raw {
				p.items = append(p.items, []byte(r))
			}
		} else {
			lines := bytes.Split(bytes.TrimRight(doc, "\n"), []byte("\n"))
			p.header = append(lines[0], '\n')
			p.items = lines[1:]
		}
		p.recs = make([][]record, len(p.items))
		for i := range p.items {
			recs, err := f.Parser.Parse(p.render(i, 1))
			if err != nil {
				return nil, fmt.Errorf("parse %s item %d: %w", f.Name, i, err)
			}
			for _, rec := range recs {
				category := f.Category
				if rec.Category != "" {
					category = rec.Category
				}
				ev, err := normalize.New(rec.Value, category, f.Name, normalize.SourceOSINT, time.Time{})
				if err != nil {
					continue // malformed: the scheduler skips it too
				}
				p.recs[i] = append(p.recs[i], record{value: ev.Value, key: recordKey(category, ev.Value)})
			}
		}
		pools = append(pools, p)
	}
	return pools, nil
}

// render builds the feed document holding items [start, start+n).
func (p *feedPool) render(start, n int) []byte {
	var b bytes.Buffer
	if p.header == nil {
		b.WriteByte('[')
		for i := start; i < start+n; i++ {
			if i > start {
				b.WriteByte(',')
			}
			b.Write(p.items[i])
		}
		b.WriteByte(']')
		return b.Bytes()
	}
	b.Write(p.header)
	for i := start; i < start+n; i++ {
		b.Write(p.items[i])
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// window is how a feed version maps onto its pool: version v publishes
// items [v*step, v*step+size). step == size serves only new items (a
// backfill round); step < size republishes the list with step items
// replaced (churn).
type window struct{ step, size int }

// feedServer is the benchmark's feed generator: it serves each pool's
// current version at /feeds/<epoch>/<index> with an ETag per version, so
// the platform's conditional polls re-fetch a feed only when it changed.
// It remembers when each canonical value was first served — the start of
// every latency the benchmark reports.
type feedServer struct {
	pools []*feedPool
	win   []window

	mu sync.Mutex
	// epoch numbers the set-ups; a poll addressed to an earlier one (a
	// closed platform's request still in flight) is answered 304 and
	// counted nowhere.
	epoch   int
	version []int // current version per feed; -1 serves nothing
	docs    map[[2]int]servedDoc
	marked  []int                // items below this index per feed have a first-serve time
	first   map[string]time.Time // record key → first serve
	values  []string             // canonical values in first-serve order
	records int64                // records in every document answered with 200
	polls   int64
	// advance, when set, makes the loop closed: a poll that already holds
	// a feed's current version gets the next one if advance allows it.
	advance func() bool
	// exhausted is set when a closed loop wanted a page past the pool.
	exhausted bool

	ln  net.Listener
	srv *http.Server
}

type servedDoc struct {
	body    []byte
	records int
}

func newFeedServer(pools []*feedPool, win []window) (*feedServer, error) {
	s := &feedServer{pools: pools, win: win}
	s.reset()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("feed server: %w", err)
	}
	s.ln = ln
	mux := http.NewServeMux()
	mux.HandleFunc("GET /feeds/{epoch}/{i}", s.serve)
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// reset forgets everything served, for a fresh platform on the same pools.
func (s *feedServer) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch++
	s.version = make([]int, len(s.pools))
	for i := range s.version {
		s.version[i] = -1
	}
	s.docs = make(map[[2]int]servedDoc)
	s.marked = make([]int, len(s.pools))
	s.first = make(map[string]time.Time)
	s.values = nil
	s.records, s.polls = 0, 0
}

// url addresses feed i in the current epoch.
func (s *feedServer) url(i int) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fmt.Sprintf("http://%s/feeds/%d/%d", s.ln.Addr(), s.epoch, i)
}

func (s *feedServer) close() { _ = s.srv.Close() }

// release drops the pools and everything served, once a run no longer
// needs them.
func (s *feedServer) release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.pools {
		p.items, p.recs = nil, nil
	}
	s.docs, s.first, s.values = nil, nil, nil
}

// setAdvance closes (fn set) or opens (nil) the loop; see advance.
func (s *feedServer) setAdvance(fn func() bool) {
	s.mu.Lock()
	s.advance = fn
	s.mu.Unlock()
}

// fits reports whether the pool of feed i holds version v.
func (s *feedServer) fits(i, v int) bool {
	return v*s.win[i].step+s.win[i].size <= len(s.pools[i].items)
}

// setVersion publishes version v of feed i. It fails when the pool is too
// small to hold the window.
func (s *feedServer) setVersion(i, v int) error {
	if !s.fits(i, v) {
		return fmt.Errorf("feed %s: pool of %d items exhausted at version %d",
			s.pools[i].feed.Name, len(s.pools[i].items), v)
	}
	s.mu.Lock()
	s.version[i] = v
	s.mu.Unlock()
	return nil
}

func (s *feedServer) serve(w http.ResponseWriter, r *http.Request) {
	i, err := strconv.Atoi(r.PathValue("i"))
	if err != nil || i < 0 || i >= len(s.pools) {
		http.NotFound(w, r)
		return
	}
	epoch, err := strconv.Atoi(r.PathValue("epoch"))
	if err != nil {
		http.NotFound(w, r)
		return
	}
	s.mu.Lock()
	if s.docs == nil || epoch != s.epoch { // released, or an earlier set-up's poll
		s.mu.Unlock()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	s.polls++
	v := s.version[i]
	etag := `"v` + strconv.Itoa(v) + `"`
	held := r.Header.Get("If-None-Match") == etag
	if held && v >= 0 && s.advance != nil && !s.fits(i, v+1) {
		s.exhausted = true
	} else if held && v >= 0 && s.advance != nil && s.advance() {
		v++
		s.version[i] = v
		etag, held = `"v`+strconv.Itoa(v)+`"`, false
	}
	if v < 0 || held {
		s.mu.Unlock()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	doc, ok := s.docs[[2]int{i, v}]
	if !ok {
		doc = s.renderLocked(i, v)
		s.docs[[2]int{i, v}] = doc
	}
	s.markLocked(i, v, time.Now())
	s.records += int64(doc.records)
	s.mu.Unlock()
	w.Header().Set("ETag", etag)
	_, _ = w.Write(doc.body)
}

func (s *feedServer) renderLocked(i, v int) servedDoc {
	p, win := s.pools[i], s.win[i]
	start := v * win.step
	n := 0
	for j := start; j < start+win.size; j++ {
		n += len(p.recs[j])
	}
	return servedDoc{body: p.render(start, win.size), records: n}
}

// markLocked stamps the first-serve time of every item of version v not
// served before. Windows only slide forward, so one high-water mark per
// feed suffices. Times are keyed by category and value: the same value
// under another feed's category is another record.
func (s *feedServer) markLocked(i, v int, at time.Time) {
	p, win := s.pools[i], s.win[i]
	end := v*win.step + win.size
	for j := max(s.marked[i], v*win.step); j < end; j++ {
		for _, rec := range p.recs[j] {
			if _, ok := s.first[rec.key]; !ok {
				s.first[rec.key] = at
				s.values = append(s.values, rec.value)
			}
		}
	}
	if end > s.marked[i] {
		s.marked[i] = end
	}
}

// served reports when the record with key was first served.
func (s *feedServer) served(key string) (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.first[key]
	return t, ok
}

// servedValue picks the n-th served canonical value (modulo the count).
func (s *feedServer) servedValue(n int) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.values) == 0 {
		return ""
	}
	return s.values[n%len(s.values)]
}

// wantRecords is how many records the feeds serve through version v when
// every feed fetched each version once.
func (s *feedServer) wantRecords(v int) int64 {
	var n int64
	for i, p := range s.pools {
		w := s.win[i]
		for ver := 0; ver <= v; ver++ {
			for j := ver * w.step; j < ver*w.step+w.size && j < len(p.recs); j++ {
				n += int64(len(p.recs[j]))
			}
		}
	}
	return n
}

type serverCounts struct {
	records   int64
	unique    int
	polls     int64
	exhausted bool
}

func (s *feedServer) counts() serverCounts {
	s.mu.Lock()
	defer s.mu.Unlock()
	return serverCounts{records: s.records, unique: len(s.first), polls: s.polls, exhausted: s.exhausted}
}
