package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/caisplatform/caisp/internal/clock"
	"github.com/caisplatform/caisp/internal/core"
	"github.com/caisplatform/caisp/internal/feed"
	"github.com/caisplatform/caisp/internal/feedgen"
)

// flushInterval is the Start flush interval of every workload. caispd's
// 2 s would hide every stage behind the batching wait.
const flushInterval = 100 * time.Millisecond

// maxClosedRate is the closed-loop collection rate, in records per second,
// the generated feeds are sized for.
const maxClosedRate = 5000

// setupRepeats is how many times a run sets the platform up; setup_s is
// the median.
const setupRepeats = 3

// spec describes one workload.
type spec struct {
	name string
	why  string
	// history, when rounds > 0, pre-seeds a durable origin store with
	// that many batch rounds of feedgen feeds (items records per feed).
	// aged stamps the history two years back so decay expires it.
	history struct {
		rounds, items int
		aged          bool
	}
	closed     bool          // closed loop: a feed pages on while work in flight is below closedWindow
	win        window        // per line feed; the MISP feed uses a tenth
	period     time.Duration // open loop: version period of each feed
	poll       time.Duration // feed poll interval
	subs       int           // standing subscriptions
	meshEvery  time.Duration // peer sync interval
	queryThink time.Duration // analyst pause between a response and the next request
	lcInterval time.Duration // lifecycle re-score cadence; 0 = default
	lcBatch    int           // lifecycle batch; 0 = default
}

func workloads() []spec {
	var backfill, churn, federate spec

	backfill.name = "backfill"
	backfill.why = "closed loop paging fresh feed records into a durable store with history: correlate, group commit, fsync, compaction and history-sized write-back"
	backfill.history.rounds, backfill.history.items = 5, 500
	backfill.closed = true
	backfill.win = window{step: 50, size: 50}
	// Back-to-back polls: every feed fetches a round within one flush.
	backfill.poll = 10 * time.Millisecond
	backfill.subs = 1000
	backfill.meshEvery = time.Second
	backfill.queryThink = 10 * time.Millisecond

	churn.name = "churn-detect"
	churn.why = "open loop of full lists republished every 125 ms with 2.5% replaced, in memory, 10k subscriptions: fetch, parse, dedup, subscribe, dashboard and sockets"
	churn.win = window{step: 5, size: 200}
	churn.period = 125 * time.Millisecond
	// A poll period that is no multiple of the flush interval walks each
	// feed's polls across the flush phase instead of locking one feed to
	// one phase for a whole run.
	churn.poll = 130 * time.Millisecond
	churn.subs = 10000
	churn.meshEvery = 50 * time.Millisecond
	churn.queryThink = 10 * time.Millisecond

	federate.name = "federate-query"
	federate.why = "durable origin under churn replicated to a peer, closed-loop REST reads, aged history expiring: mesh, reads beside writes, deletes"
	federate.history.rounds, federate.history.items, federate.history.aged = 3, 400, true
	federate.win = window{step: 4, size: 160}
	federate.period = 125 * time.Millisecond
	federate.poll = 130 * time.Millisecond
	federate.subs = 1000
	federate.meshEvery = 50 * time.Millisecond
	federate.lcInterval = 250 * time.Millisecond
	federate.lcBatch = 48

	return []spec{backfill, churn, federate}
}

func findSpec(name string) (spec, bool) {
	for _, s := range workloads() {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// windowFor scales the workload window to the named feed: the MISP
// feed's items are events of ten attributes each.
func (s spec) windowFor(feedName string) window {
	if feedName == feedgen.FeedMISP {
		return window{step: max(1, s.win.step/10), size: max(1, s.win.size/10)}
	}
	return s.win
}

// poolItems sizes the pools for a run of the given length: the feedgen
// item count at which every feed holds all the versions the run can
// publish. feedgen makes Items/10+1 MISP events, and the MISP window
// rounds its step up to one event, so that feed often sets the size.
func (s spec) poolItems(seconds int) int {
	// Versions a run can publish. A closed loop has room for
	// maxClosedRate records per second, several times what the platform
	// collects today; an open loop publishes one version per period, and
	// both get a margin. A run that outgrows its pool fails loudly.
	var versions int
	if s.closed {
		versions = maxClosedRate*seconds/(len(feedgen.AllFeeds)*s.win.size) + 20
	} else {
		versions = int((time.Duration(seconds)*time.Second+30*time.Second)/s.period) + 2
	}
	need := func(w window) int { return w.size + w.step*versions }
	return max(need(s.win), 10*need(s.windowFor(feedgen.FeedMISP)))
}

// makeInputs generates the run's feeds from its seed and the window each
// feed publishes.
func makeInputs(s spec, seed int64, seconds int) ([]*feedPool, []window, error) {
	pools, err := buildPools(feedgenConfig(seed, s.poolItems(seconds)))
	if err != nil {
		return nil, nil, err
	}
	win := make([]window, len(pools))
	for i, p := range pools {
		win[i] = s.windowFor(p.feed.Name)
	}
	return pools, win, nil
}

// historyDir returns the workload's prepared history template, building
// it on first use: batch rounds of fixed feedgen feeds through the
// platform into a durable store. The history is the same for every seed.
func historyDir(s spec, workdir string) (string, error) {
	if s.history.rounds == 0 {
		return "", nil
	}
	dir := filepath.Join(workdir, "history", fmt.Sprintf("%s-r%d-i%d-v1", s.name, s.history.rounds, s.history.items))
	if _, err := os.Stat(filepath.Join(dir, ".ready")); err == nil {
		return dir, nil
	}
	// A private build directory, renamed into place when complete, so a
	// run that stops half way or a second run building at the same time
	// never leaves or uses a partial history.
	if err := os.MkdirAll(filepath.Dir(dir), 0o755); err != nil {
		return "", err
	}
	tmp, err := os.MkdirTemp(filepath.Dir(dir), filepath.Base(dir)+".tmp-")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(tmp)
	var docs []map[string][]byte
	var feeds []feed.Feed
	for r := 0; r < s.history.rounds; r++ {
		gen := feedgen.New(feedgenConfig(int64(1_000_000+r), s.history.items))
		d, err := gen.Documents()
		if err != nil {
			return "", err
		}
		docs = append(docs, d)
		if r == 0 {
			if feeds, err = gen.Feeds(time.Hour); err != nil {
				return "", err
			}
		}
	}
	for i := range feeds {
		rounds := make([][]byte, len(docs))
		for r := range docs {
			rounds[r] = docs[r][feeds[i].Name]
		}
		feeds[i].Fetcher = &roundFetcher{docs: rounds}
	}
	cfg := core.Config{DataDir: tmp, NodeName: "origin", Feeds: feeds, ShareTAXII: true, Logger: quietLogger()}
	if s.history.aged {
		cfg.Clock = clock.NewFake(time.Now().AddDate(-2, 0, 0))
	}
	p, err := core.New(cfg)
	if err != nil {
		return "", err
	}
	for r := 0; r < s.history.rounds; r++ {
		if err := p.RunBatch(context.Background()); err != nil {
			p.Close()
			return "", fmt.Errorf("history round %d: %w", r, err)
		}
	}
	if err := p.Close(); err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(tmp, ".ready"), nil, 0o644); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, dir); err != nil {
		if _, serr := os.Stat(filepath.Join(dir, ".ready")); serr == nil {
			return dir, nil // another run finished the same history first
		}
		// A partial directory left by an older layout: replace it.
		if err := os.RemoveAll(dir); err != nil {
			return "", err
		}
		return dir, os.Rename(tmp, dir)
	}
	return dir, nil
}

// roundFetcher serves its documents one per fetch, then reports
// not-modified.
type roundFetcher struct {
	docs [][]byte
	next int
}

func (f *roundFetcher) Fetch(context.Context) ([]byte, bool, error) {
	if f.next >= len(f.docs) {
		return nil, true, nil
	}
	f.next++
	return f.docs[f.next-1], false, nil
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() || e.Name() == ".ready" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// subscriptionPattern is the i-th standing pattern, in cmd/subload's
// 88/8/2/1/1 mix of domain equality, IPv4 set membership, score
// threshold, URL LIKE and CIDR subset. Every 16th domain and IP pattern
// names a value the feeds carry, so matches fire throughout the run.
func subscriptionPattern(i int, rng *rand.Rand, gen *feedServer) string {
	switch {
	case i%100 < 88:
		if i%16 == 0 {
			if v := poolValue(gen, rng, "domain"); v != "" {
				return fmt.Sprintf("[domain-name:value = '%s']", v)
			}
		}
		return fmt.Sprintf("[domain-name:value = 'd%d.example']", i)
	case i%100 < 96:
		a, b := fmt.Sprintf("10.%d.%d.1", i/251%251, i%251), fmt.Sprintf("10.%d.%d.2", i/251%251, i%251)
		if i%16 == 8 {
			if v := poolValue(gen, rng, "ipv4"); v != "" {
				a = v
			}
		}
		return fmt.Sprintf("[ipv4-addr:value IN ('%s', '%s')]", a, b)
	case i%100 < 98:
		return fmt.Sprintf("[x-caisp:threat-score >= 0.%d]", 1+i%9)
	case i%100 < 99:
		return fmt.Sprintf("[url:value LIKE '%%/kit-%d/%%.bin']", i)
	default:
		return fmt.Sprintf("[ipv4-addr:value ISSUBSET '192.%d.%d.0/24']", i/251%251, i%251)
	}
}

// poolValue picks a canonical value of the given kind from the feeds.
func poolValue(gen *feedServer, rng *rand.Rand, kind string) string {
	name := feedgen.FeedMalwareDomains
	if kind == "ipv4" {
		name = feedgen.FeedBotnetIPs
	}
	for _, p := range gen.pools {
		if p.feed.Name != name || len(p.recs) == 0 {
			continue
		}
		for tries := 0; tries < 8; tries++ {
			recs := p.recs[rng.Intn(len(p.recs))]
			if len(recs) > 0 {
				return recs[0].value
			}
		}
	}
	return ""
}

func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
