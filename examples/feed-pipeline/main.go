// Streaming pipeline over HTTP feeds: a synthetic feed server publishes
// OSINT documents, the platform polls them over HTTP with conditional GETs,
// and the dashboard serves the live topology while rIoCs arrive over its
// WebSocket. The example runs for a few seconds and prints what happened.
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"time"

	"github.com/caisplatform/caisp"
	"github.com/caisplatform/caisp/internal/feed"
	"github.com/caisplatform/caisp/internal/feedgen"
	"github.com/caisplatform/caisp/internal/normalize"
)

func main() {
	// A feed server: in production this is the open internet; here the
	// generator serves deterministic documents with ETag support.
	gen := feedgen.New(feedgen.Config{
		Seed: 7, Items: 120, DuplicationRate: 0.25, OverlapRate: 0.2, DefangRate: 0.4,
	})
	handler, err := gen.Handler()
	if err != nil {
		log.Fatal(err)
	}
	feedServer := httptest.NewServer(handler)
	defer feedServer.Close()

	// HTTP feeds with short intervals; the second poll hits the ETag path.
	var feeds []caisp.Feed
	for _, spec := range []struct {
		name, category string
		parser         feed.Parser
	}{
		{name: feedgen.FeedMalwareDomains, category: normalize.CategoryMalwareDomain, parser: feed.PlaintextParser{}},
		{name: feedgen.FeedBotnetIPs, category: normalize.CategoryBotnetC2, parser: feed.CSVParser{ValueColumn: 0, HasHeader: true}},
		{name: feedgen.FeedAdvisories, category: normalize.CategoryVulnExploit, parser: feed.AdvisoryParser{}},
	} {
		feeds = append(feeds, caisp.Feed{
			Name:     spec.name,
			Category: spec.category,
			Fetcher:  &feed.HTTPFetcher{URL: feedServer.URL + "/feeds/" + spec.name},
			Parser:   spec.parser,
			Interval: 500 * time.Millisecond,
		})
	}

	platform, err := caisp.New(caisp.Config{Feeds: feeds, ShareTAXII: true})
	if err != nil {
		log.Fatal(err)
	}
	defer platform.Close()

	// The dashboard itself is an http.Handler; serve it while streaming.
	dashServer := httptest.NewServer(platform.Dashboard())
	defer dashServer.Close()
	fmt.Printf("dashboard (for the duration of this run): %s\n\n", dashServer.URL)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := platform.Start(ctx, 0); err != nil {
		log.Fatal(err)
	}
	time.Sleep(3 * time.Second)
	platform.Stop()

	for name, st := range platform.FeedStats() {
		fmt.Printf("feed %-18s fetches=%d not-modified=%d records=%d errors=%d\n",
			name, st.Fetches, st.NotModified, st.Records, st.Errors)
	}
	stats := platform.Stats()
	fmt.Printf("\npipeline: collected=%d unique=%d duplicates=%d ciocs=%d eiocs=%d riocs=%d\n",
		stats.EventsCollected, stats.EventsUnique, stats.Duplicates,
		stats.CIoCs, stats.EIoCs, stats.RIoCs)
	fmt.Printf("dedup reduction: %.1f%%\n", platform.DedupStats().ReductionRatio()*100)
	fmt.Printf("taxii collection holds %d shared eIoC objects\n",
		platform.TAXII().ObjectCount("eiocs"))
}
