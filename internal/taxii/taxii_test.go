package taxii

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/caisplatform/caisp/internal/stix"
)

var now = time.Date(2019, 6, 24, 12, 0, 0, 0, time.UTC)

func testServer(t *testing.T, opts ...Option) (*Server, *httptest.Server) {
	t.Helper()
	clock := now
	opts = append([]Option{WithNow(func() time.Time {
		clock = clock.Add(time.Second)
		return clock
	})}, opts...)
	s := NewServer("CAISP TAXII", "caisp", opts...)
	s.AddCollection("eiocs", "Enriched IoCs", "eIoCs shared by the platform", true)
	s.AddCollection("readonly", "Read-only", "", false)
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return s, srv
}

func vuln(t *testing.T, name string) *stix.Vulnerability {
	t.Helper()
	return stix.NewVulnerability(name, "test", now)
}

func TestDiscoveryAndCollections(t *testing.T) {
	_, srv := testServer(t)
	c := NewClient(srv.URL, "")

	d, err := c.Discover()
	if err != nil {
		t.Fatal(err)
	}
	if d.Title != "CAISP TAXII" || len(d.APIRoots) != 1 || d.APIRoots[0] != "/caisp/" {
		t.Fatalf("discovery = %+v", d)
	}
	cols, err := c.Collections("caisp")
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 2 {
		t.Fatalf("collections = %+v", cols)
	}
	if cols[0].ID != "eiocs" || !cols[0].CanWrite || cols[1].CanWrite {
		t.Fatalf("collection metadata wrong: %+v", cols)
	}
}

func TestServerSideAddAndClientRead(t *testing.T) {
	s, srv := testServer(t)
	if err := s.AddObjects("eiocs", vuln(t, "CVE-2017-9805"), vuln(t, "CVE-2019-0001")); err != nil {
		t.Fatal(err)
	}
	if s.ObjectCount("eiocs") != 2 {
		t.Fatalf("ObjectCount = %d", s.ObjectCount("eiocs"))
	}
	c := NewClient(srv.URL, "")
	objs, err := c.AllObjects("caisp", "eiocs", time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 {
		t.Fatalf("fetched %d objects", len(objs))
	}
	if objs[0].GetCommon().Type != stix.TypeVulnerability {
		t.Fatalf("object type = %q", objs[0].GetCommon().Type)
	}
	if err := s.AddObjects("ghost", vuln(t, "x")); err == nil {
		t.Fatal("unknown collection accepted")
	}
}

func TestClientPush(t *testing.T) {
	s, srv := testServer(t)
	c := NewClient(srv.URL, "")
	st, err := c.AddObjects("caisp", "eiocs", vuln(t, "CVE-2020-0001"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != "complete" || st.SuccessCount != 1 || st.FailureCount != 0 {
		t.Fatalf("status = %+v", st)
	}
	if s.ObjectCount("eiocs") != 1 {
		t.Fatalf("server count = %d", s.ObjectCount("eiocs"))
	}
	// Read-only collection refuses writes.
	if _, err := c.AddObjects("caisp", "readonly", vuln(t, "x")); err == nil {
		t.Fatal("write to read-only collection accepted")
	}
}

func TestPagination(t *testing.T) {
	s, srv := testServer(t)
	var objs []stix.Object
	for i := 0; i < 25; i++ {
		objs = append(objs, vuln(t, "CVE-2020-"+strings.Repeat("0", 3)+string(rune('a'+i))))
	}
	if err := s.AddObjects("eiocs", objs...); err != nil {
		t.Fatal(err)
	}
	c := NewClient(srv.URL, "")

	env, err := c.ObjectsPage("caisp", "eiocs", time.Time{}, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(env.Objects) != 10 || !env.More || env.Next == "" {
		t.Fatalf("page 1 = %d objects, more=%v", len(env.Objects), env.More)
	}
	env2, err := c.ObjectsPage("caisp", "eiocs", time.Time{}, 10, env.Next)
	if err != nil {
		t.Fatal(err)
	}
	if len(env2.Objects) != 10 || !env2.More {
		t.Fatalf("page 2 = %d objects, more=%v", len(env2.Objects), env2.More)
	}
	env3, err := c.ObjectsPage("caisp", "eiocs", time.Time{}, 10, env2.Next)
	if err != nil {
		t.Fatal(err)
	}
	if len(env3.Objects) != 5 || env3.More {
		t.Fatalf("page 3 = %d objects, more=%v", len(env3.Objects), env3.More)
	}
	// AllObjects pages transparently.
	all, err := c.AllObjects("caisp", "eiocs", time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 25 {
		t.Fatalf("AllObjects = %d", len(all))
	}
}

func TestAddedAfterFilter(t *testing.T) {
	s, srv := testServer(t)
	if err := s.AddObjects("eiocs", vuln(t, "early")); err != nil {
		t.Fatal(err)
	}
	// The fake clock advances one second per call; the second object is
	// added strictly later.
	if err := s.AddObjects("eiocs", vuln(t, "late")); err != nil {
		t.Fatal(err)
	}
	c := NewClient(srv.URL, "")
	all, err := c.AllObjects("caisp", "eiocs", time.Time{})
	if err != nil || len(all) != 2 {
		t.Fatalf("unfiltered = %d, %v", len(all), err)
	}
	filtered, err := c.AllObjects("caisp", "eiocs", now.Add(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if len(filtered) != 1 {
		t.Fatalf("added_after = %d objects, want 1", len(filtered))
	}
}

func TestTypeAndIDMatchFilters(t *testing.T) {
	s, srv := testServer(t)
	v := vuln(t, "CVE-2020-1111")
	ind := stix.NewIndicator("[domain-name:value = 'x.example']", []string{"malicious-activity"}, now)
	if err := s.AddObjects("eiocs", v, ind); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/caisp/collections/eiocs/objects/?match%5Btype%5D=vulnerability")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env Envelope
	if err := decode(resp, &env); err != nil {
		t.Fatal(err)
	}
	if len(env.Objects) != 1 {
		t.Fatalf("type filter = %d objects", len(env.Objects))
	}
	resp2, err := http.Get(srv.URL + "/caisp/collections/eiocs/objects/?match%5Bid%5D=" + ind.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var env2 Envelope
	if err := decode(resp2, &env2); err != nil {
		t.Fatal(err)
	}
	if len(env2.Objects) != 1 {
		t.Fatalf("id filter = %d objects", len(env2.Objects))
	}
}

func TestAuthentication(t *testing.T) {
	_, srv := testServer(t, WithAPIKey("taxii-secret"))
	anon := NewClient(srv.URL, "")
	if _, err := anon.Discover(); err == nil {
		t.Fatal("anonymous access accepted")
	}
	authed := NewClient(srv.URL, "taxii-secret")
	if _, err := authed.Discover(); err != nil {
		t.Fatal(err)
	}
}

func TestBadRequests(t *testing.T) {
	_, srv := testServer(t)
	for _, path := range []string{
		"/caisp/collections/ghost/objects/",
		"/caisp/collections/ghost/",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s status = %d, want 404", path, resp.StatusCode)
		}
	}
	for _, query := range []string{"added_after=yesterday", "limit=-1", "limit=zero", "next=abc"} {
		resp, err := http.Get(srv.URL + "/caisp/collections/eiocs/objects/?" + query)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("query %q status = %d, want 400", query, resp.StatusCode)
		}
	}
	resp, err := http.Post(srv.URL+"/caisp/collections/eiocs/objects/", ContentType, strings.NewReader("{bad"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad envelope status = %d", resp.StatusCode)
	}
}

func TestContentType(t *testing.T) {
	_, srv := testServer(t)
	resp, err := http.Get(srv.URL + "/taxii2/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != ContentType {
		t.Fatalf("Content-Type = %q", got)
	}
}

func decode(resp *http.Response, out any) error {
	return json.NewDecoder(resp.Body).Decode(out)
}

func TestManifest(t *testing.T) {
	s, srv := testServer(t)
	v1 := vuln(t, "CVE-2020-0001")
	v2 := vuln(t, "CVE-2020-0002")
	if err := s.AddObjects("eiocs", v1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddObjects("eiocs", v2); err != nil {
		t.Fatal(err)
	}
	c := NewClient(srv.URL, "")
	entries, err := c.ManifestEntries("caisp", "eiocs", time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("entries = %d", len(entries))
	}
	// The version is the object's STIX modified, not its date_added (the
	// fake clock puts date_added a second or more after modified).
	if entries[0].ID != v1.ID || entries[0].Version != "2019-06-24T12:00:00.000Z" {
		t.Fatalf("entry = %+v, want version 2019-06-24T12:00:00.000Z", entries[0])
	}
	// added_after filters (the fake clock ticks per AddObjects call).
	filtered, err := c.ManifestEntries("caisp", "eiocs", entries[0].DateAdded)
	if err != nil {
		t.Fatal(err)
	}
	if len(filtered) != 1 || filtered[0].ID != v2.ID {
		t.Fatalf("filtered = %+v", filtered)
	}
	if _, err := c.ManifestEntries("caisp", "ghost", time.Time{}); err == nil {
		t.Fatal("unknown collection accepted")
	}
	// A new version reports its own modified.
	v1.Modified = stix.TS(now.Add(time.Hour))
	if err := s.AddObjects("eiocs", v1); err != nil {
		t.Fatal(err)
	}
	entries, err = c.ManifestEntries("caisp", "eiocs", time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[1].ID != v1.ID || entries[1].Version != "2019-06-24T13:00:00.000Z" {
		t.Fatalf("entries after re-share = %+v", entries)
	}
}

// sharedVuln is a vulnerability shared for the eIoC event.
func sharedVuln(t *testing.T, name, event string) *stix.Vulnerability {
	t.Helper()
	v := vuln(t, name)
	v.SetExtra("x_misp_event_uuid", event)
	return v
}

// checkInvariants asserts the collection's internal invariants: order is
// seq-ascending with non-decreasing date_added, every id indexes its live
// slot, and superseded slots never outnumber live ones.
func checkInvariants(t *testing.T, s *Server, collectionID string) {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	c := s.collections[collectionID]
	live := 0
	for i, o := range c.order {
		if i > 0 && (o.seq <= c.order[i-1].seq || o.addedAt.Before(c.order[i-1].addedAt)) {
			t.Fatalf("order broken at %d: %+v after %+v", i, o, c.order[i-1])
		}
		if o.raw == nil {
			continue
		}
		live++
		if c.byID[o.id] != i {
			t.Fatalf("byID[%s] = %d, live slot at %d", o.id, c.byID[o.id], i)
		}
	}
	if live != len(c.byID) || live != len(c.order)-c.dead {
		t.Fatalf("live = %d, byID = %d, order = %d, dead = %d", live, len(c.byID), len(c.order), c.dead)
	}
	indexed := 0
	for event, ids := range c.byEvent {
		for pos, id := range ids {
			i, ok := c.byID[id]
			if !ok || c.order[i].event != event || c.order[i].evPos != pos {
				t.Fatalf("byEvent[%s][%d] = %s, not its live version's place", event, pos, id)
			}
		}
		indexed += len(ids)
	}
	for _, o := range c.order {
		if o.raw != nil && o.event != "" {
			indexed--
		}
	}
	if indexed != 0 {
		t.Fatalf("withdrawal index and live objects with an event differ by %d", indexed)
	}
	if c.dead > 0 && 2*c.dead >= len(c.order) {
		t.Fatalf("dead = %d of %d slots left uncompacted", c.dead, len(c.order))
	}
}

func TestUnchangedReshareIsNoOp(t *testing.T) {
	s, srv := testServer(t)
	var objs []stix.Object
	for i := 0; i < 30; i++ {
		objs = append(objs, vuln(t, fmt.Sprintf("CVE-2020-%04d", i)))
	}
	if err := s.AddObjects("eiocs", objs...); err != nil {
		t.Fatal(err)
	}
	c := NewClient(srv.URL, "")
	before, err := c.ManifestEntries("caisp", "eiocs", time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 5; n++ {
		if err := s.AddObjects("eiocs", objs...); err != nil {
			t.Fatal(err)
		}
		if _, err := c.AddObjects("caisp", "eiocs", objs[n]); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.ObjectCount("eiocs"); got != len(objs) {
		t.Fatalf("ObjectCount = %d after re-shares, want %d distinct ids", got, len(objs))
	}
	after, err := c.ManifestEntries("caisp", "eiocs", time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("manifest holds %d entries, want %d", len(after), len(before))
	}
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("entry %d changed: %+v, was %+v", i, after[i], before[i])
		}
	}
	s.mu.RLock()
	for i, o := range s.collections["eiocs"].order {
		if o.seq != i+1 {
			t.Errorf("slot %d holds seq %d after no-op re-shares, want %d", i, o.seq, i+1)
		}
	}
	s.mu.RUnlock()
	// The first share happened on the first clock tick; nothing since
	// counts as added.
	fresh, err := c.AllObjects("caisp", "eiocs", before[0].DateAdded)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh) != 0 {
		t.Fatalf("added_after poll returned %d objects after no-op re-shares", len(fresh))
	}
	checkInvariants(t, s, "eiocs")
}

func TestChangedObjectComesBackOnce(t *testing.T) {
	s, srv := testServer(t)
	a, b, d := vuln(t, "CVE-2021-0001"), vuln(t, "CVE-2021-0002"), vuln(t, "CVE-2021-0003")
	if err := s.AddObjects("eiocs", a, b, d); err != nil {
		t.Fatal(err)
	}
	c := NewClient(srv.URL, "")
	first, err := c.ManifestEntries("caisp", "eiocs", time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	b.Description = "re-scored"
	b.Modified = stix.TS(now.Add(time.Minute))
	if err := s.AddObjects("eiocs", a, b, d); err != nil {
		t.Fatal(err)
	}
	if got := s.ObjectCount("eiocs"); got != 3 {
		t.Fatalf("ObjectCount = %d, want 3", got)
	}
	changed, err := c.AllObjects("caisp", "eiocs", first[0].DateAdded)
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 1 || changed[0].GetCommon().ID != b.ID {
		t.Fatalf("added_after poll = %d objects, want the changed %s once", len(changed), b.ID)
	}
	if got := changed[0].(*stix.Vulnerability).Description; got != "re-scored" {
		t.Fatalf("poll returned the old version: %q", got)
	}
	// The changed object moved to the tail of the order.
	all, err := c.AllObjects("caisp", "eiocs", time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 || all[2].GetCommon().ID != b.ID {
		t.Fatalf("full read = %d objects, want the changed one last", len(all))
	}
	checkInvariants(t, s, "eiocs")
}

func TestNextPagingAcrossReplacements(t *testing.T) {
	s, srv := testServer(t)
	var vulns []*stix.Vulnerability
	for i := 0; i < 25; i++ {
		v := vuln(t, fmt.Sprintf("CVE-2022-%04d", i))
		vulns = append(vulns, v)
		if err := s.AddObjects("eiocs", v); err != nil {
			t.Fatal(err)
		}
	}
	c := NewClient(srv.URL, "")
	env, err := c.ObjectsPage("caisp", "eiocs", time.Time{}, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]int)
	collect := func(env Envelope) {
		for _, raw := range env.Objects {
			obj, err := stix.Unmarshal(raw)
			if err != nil {
				t.Fatal(err)
			}
			seen[obj.GetCommon().ID+" "+obj.(*stix.Vulnerability).Description]++
		}
	}
	collect(env)
	// Replace one object the client has read and one it has not, and
	// re-share one unchanged.
	for _, i := range []int{3, 15} {
		vulns[i].Description = "v2"
		if err := s.AddObjects("eiocs", vulns[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddObjects("eiocs", vulns[20]); err != nil {
		t.Fatal(err)
	}
	for env.More {
		if env, err = c.ObjectsPage("caisp", "eiocs", time.Time{}, 10, env.Next); err != nil {
			t.Fatal(err)
		}
		collect(env)
	}
	if len(seen) != 26 {
		t.Fatalf("read %d distinct versions, want 25 first versions less the unread replaced one, plus 2 new", len(seen))
	}
	for key, n := range seen {
		if n != 1 {
			t.Fatalf("%s read %d times", key, n)
		}
	}
	for i, v := range vulns {
		_, v1 := seen[v.ID+" test"]
		_, v2 := seen[v.ID+" v2"]
		switch i {
		case 3:
			if !v1 || !v2 {
				t.Fatalf("read-then-replaced object: v1 %v, v2 %v; want both", v1, v2)
			}
		case 15:
			if v1 || !v2 {
				t.Fatalf("replaced-before-read object: v1 %v, v2 %v; want only v2", v1, v2)
			}
		default:
			if !v1 || v2 {
				t.Fatalf("object %d: v1 %v, v2 %v; want only v1", i, v1, v2)
			}
		}
	}
	checkInvariants(t, s, "eiocs")
}

func TestWithdrawEvent(t *testing.T) {
	s, srv := testServer(t)
	a := sharedVuln(t, "CVE-2023-0001", "event-a")
	shared := sharedVuln(t, "CVE-2023-0002", "event-a")
	b := sharedVuln(t, "CVE-2023-0003", "event-b")
	plain := vuln(t, "CVE-2023-0004")
	if err := s.AddObjects("eiocs", a, shared, b, plain); err != nil {
		t.Fatal(err)
	}
	// The shared id's current version now belongs to event-b.
	shared.SetExtra("x_misp_event_uuid", "event-b")
	if err := s.AddObjects("eiocs", shared); err != nil {
		t.Fatal(err)
	}
	if n := s.WithdrawEvent("eiocs", "event-a"); n != 1 {
		t.Fatalf("withdrew %d objects of event-a, want 1", n)
	}
	if n := s.WithdrawEvent("eiocs", "event-a"); n != 0 {
		t.Fatalf("second withdrawal removed %d objects", n)
	}
	if n := s.WithdrawEvent("ghost", "event-b"); n != 0 {
		t.Fatalf("withdrawal from an unknown collection removed %d objects", n)
	}
	ids := func() map[string]bool {
		all, err := NewClient(srv.URL, "").AllObjects("caisp", "eiocs", time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]bool, len(all))
		for _, o := range all {
			out[o.GetCommon().ID] = true
		}
		return out
	}
	if got := ids(); len(got) != 3 || got[a.ID] || !got[shared.ID] || !got[b.ID] || !got[plain.ID] {
		t.Fatalf("after withdrawing event-a: %v", got)
	}
	if n := s.WithdrawEvent("eiocs", "event-b"); n != 2 {
		t.Fatalf("withdrew %d objects of event-b, want 2", n)
	}
	if got := ids(); len(got) != 1 || !got[plain.ID] || s.ObjectCount("eiocs") != 1 {
		t.Fatalf("after withdrawing event-b: %v", got)
	}
	// A withdrawn object shared again comes back.
	if err := s.AddObjects("eiocs", a); err != nil {
		t.Fatal(err)
	}
	if s.ObjectCount("eiocs") != 2 {
		t.Fatalf("ObjectCount = %d after re-sharing a withdrawn object", s.ObjectCount("eiocs"))
	}
	checkInvariants(t, s, "eiocs")
}

// TestWithdrawIndexUnderOwnershipChanges moves ids between events at
// random, as re-analysis of two clusters sharing an indicator does, and
// checks the withdrawal index after every share.
func TestWithdrawIndexUnderOwnershipChanges(t *testing.T) {
	s, _ := testServer(t)
	rng := rand.New(rand.NewSource(1))
	events := []string{"", "event-a", "event-b", "event-c"}
	var vulns []*stix.Vulnerability
	for i := 0; i < 40; i++ {
		vulns = append(vulns, vuln(t, fmt.Sprintf("CVE-2024-%04d", i)))
	}
	owner := make(map[string]string)
	for step := 0; step < 400; step++ {
		v := vulns[rng.Intn(len(vulns))]
		event := events[rng.Intn(len(events))]
		if event == "" {
			delete(v.Extra, "x_misp_event_uuid")
		} else {
			v.SetExtra("x_misp_event_uuid", event)
		}
		if err := s.AddObjects("eiocs", v); err != nil {
			t.Fatal(err)
		}
		owner[v.ID] = event
		checkInvariants(t, s, "eiocs")
	}
	for _, event := range events[1:] {
		want := 0
		for id, e := range owner {
			if e == event {
				want++
				delete(owner, id)
			}
		}
		if n := s.WithdrawEvent("eiocs", event); n != want {
			t.Fatalf("withdrew %d objects of %s, want %d", n, event, want)
		}
		checkInvariants(t, s, "eiocs")
	}
	if s.ObjectCount("eiocs") != len(owner) {
		t.Fatalf("ObjectCount = %d, want the %d objects without an event", s.ObjectCount("eiocs"), len(owner))
	}
}

func TestOversizedPostRejected(t *testing.T) {
	s, srv := testServer(t)
	obj, err := stix.Marshal(vuln(t, "CVE-2025-0001"))
	if err != nil {
		t.Fatal(err)
	}
	// A valid envelope whose padding pushes it past max_content_length.
	body := io.MultiReader(
		strings.NewReader(`{"objects":[`+string(obj)+`]`),
		io.LimitReader(spaces{}, MaxContentLength),
		strings.NewReader(`}`),
	)
	resp, err := http.Post(srv.URL+"/caisp/collections/eiocs/objects/", ContentType, body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status = %d, want 413", resp.StatusCode)
	}
	if s.ObjectCount("eiocs") != 0 {
		t.Fatalf("oversized body stored %d objects", s.ObjectCount("eiocs"))
	}
	// The same envelope without the padding is accepted.
	resp, err = http.Post(srv.URL+"/caisp/collections/eiocs/objects/", ContentType,
		strings.NewReader(`{"objects":[`+string(obj)+`]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || s.ObjectCount("eiocs") != 1 {
		t.Fatalf("small body status = %d, count = %d", resp.StatusCode, s.ObjectCount("eiocs"))
	}
}

// spaces is an endless reader of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestConcurrentShareReadWithdraw races shares, withdrawals and paged
// reads of one collection (run under -race).
func TestConcurrentShareReadWithdraw(t *testing.T) {
	s, srv := testServer(t)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			event := fmt.Sprintf("event-%d", w)
			for i := 0; i < 100; i++ {
				v := sharedVuln(t, fmt.Sprintf("CVE-2026-%04d", i%20), event)
				v.Description = fmt.Sprintf("revision %d", i)
				if err := s.AddObjects("eiocs", v); err != nil {
					t.Error(err)
					return
				}
				if i%25 == 24 {
					s.WithdrawEvent("eiocs", event)
				}
			}
		}(w)
	}
	c := NewClient(srv.URL, "")
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := c.AllObjects("caisp", "eiocs", time.Time{}); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.ManifestEntries("caisp", "eiocs", time.Time{}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	checkInvariants(t, s, "eiocs")
}
