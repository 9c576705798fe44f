package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/clock"
	"github.com/caisplatform/caisp/internal/feed"
	"github.com/caisplatform/caisp/internal/normalize"
)

// TestComposeNeedsNoClockAdvance runs streaming mode on a fake clock that
// is never advanced, with an hour-long interval argument: a polled record
// must still be composed, stored, scored and pushed to the dashboard,
// because the composer is woken by the arrival itself, not by a timer.
func TestComposeNeedsNoClockAdvance(t *testing.T) {
	p := newPlatform(t, Config{Feeds: []feed.Feed{advisoryFeed(strutsAdvisory)}})
	if err := p.Start(context.Background(), time.Hour); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	deadline := time.Now().Add(10 * time.Second)
	for p.Stats().EIoCs == 0 || len(p.Dashboard().RIoCs()) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("polled record never reached the dashboard without a clock advance: %+v", p.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if st := p.Stats(); st.CIoCs == 0 || st.StoredEvents == 0 {
		t.Fatalf("record scored but not stored: %+v", st)
	}
}

// TestPendingBacklogLandsInOneFlush queues unique records before the
// composer first wakes and expects all of them in a single
// group-committed flush: composing on arrival keeps the natural batching
// of everything that piled up while the composer was busy.
func TestPendingBacklogLandsInOneFlush(t *testing.T) {
	const backlog = 50
	p := newPlatform(t, Config{DisableLifecycle: true})
	for i := 0; i < backlog; i++ {
		e, err := normalize.New(fmt.Sprintf("backlog-%d.example", i), normalize.CategoryMalwareDomain,
			"t", normalize.SourceOSINT, batchTime)
		if err != nil {
			t.Fatal(err)
		}
		p.ingest(e)
	}
	if err := p.Start(context.Background(), time.Hour); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for p.Stats().EIoCs+p.Stats().Unscorable < backlog {
		if time.Now().After(deadline) {
			t.Fatalf("backlog not analyzed: %+v", p.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	p.Stop()
	text := scrape(t, p)
	if n := metricValue(t, text, "caisp_pipeline_flush_seconds_count"); n != 1 {
		t.Fatalf("backlog composed in %v flushes, want 1", n)
	}
	if n := metricValue(t, text, "caisp_store_batch_size_events_count"); n != 1 {
		t.Fatalf("backlog stored in %v PutBatch calls, want 1", n)
	}
	if n := metricValue(t, text, "caisp_store_batch_size_events_sum"); n != backlog {
		t.Fatalf("flush stored %v events, want %d", n, backlog)
	}
}

// TestStopAnalyzesInFlightBatch stops the platform while the composer is
// still handing a large stored batch to a single, saturated analyzer
// shard. Every stored cIoC must still be scored: the part of the batch the
// composer had not dispatched when it was cancelled is analyzed by Stop,
// not left stored but unscored (nothing would score it after a restart).
func TestStopAnalyzesInFlightBatch(t *testing.T) {
	const lines = 1000
	var doc strings.Builder
	for i := 0; i < lines; i++ {
		// Distinct registered domains: every line is its own cluster, so
		// the run has no cluster edits or merges.
		fmt.Fprintf(&doc, "stop-%d.example\n", i)
	}
	p := newPlatform(t, Config{
		Feeds: []feed.Feed{{
			Name:     "stop-feed",
			Category: normalize.CategoryMalwareDomain,
			Fetcher:  &feed.StaticFetcher{Data: []byte(doc.String())},
			Parser:   feed.PlaintextParser{},
			Interval: time.Hour,
		}},
		Clock:        clock.Real(),
		AnalyzerPool: 1,
	})
	if err := p.Start(context.Background(), time.Millisecond); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for p.Stats().CIoCs == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("nothing was composed: %+v", p.Stats())
		}
		time.Sleep(100 * time.Microsecond)
	}
	p.Stop()

	st := p.Stats()
	if st.CIoCs != lines {
		t.Fatalf("stored %d cIoCs, want %d: %+v", st.CIoCs, lines, st)
	}
	if st.CIoCs+st.ClusterEdits != st.EIoCs+st.Unscorable+st.ClusterMerges {
		t.Fatalf("stored cIoCs left unanalyzed after Stop: ciocs %d + edits %d != eiocs %d + unscorable %d + merges %d",
			st.CIoCs, st.ClusterEdits, st.EIoCs, st.Unscorable, st.ClusterMerges)
	}
}
