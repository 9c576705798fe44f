// Package taxii implements a TAXII 2.1 server and client — the standard
// channel the paper recommends for sharing threat intelligence with
// entities that do not run MISP (§II-A pairs STIX for describing cyber
// threat information with TAXII for sharing it in an automated and secure
// way). The server hosts collections of STIX objects with added_after
// filtering and pagination; the client consumes them. A collection keeps
// one current version per STIX id (TAXII 2.1's default match[version]=last).
package taxii

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/caisplatform/caisp/internal/stix"
)

// ContentType is the TAXII 2.1 media type.
const ContentType = "application/taxii+json;version=2.1"

// MaxContentLength is the largest POST body the server accepts, as its API
// root advertises; a larger body is answered 413 and nothing is stored.
const MaxContentLength = 32 << 20

// Discovery is the server metadata document.
type Discovery struct {
	Title       string   `json:"title"`
	Description string   `json:"description,omitempty"`
	Default     string   `json:"default,omitempty"`
	APIRoots    []string `json:"api_roots"`
}

// APIRoot describes one API root.
type APIRoot struct {
	Title            string   `json:"title"`
	Versions         []string `json:"versions"`
	MaxContentLength int      `json:"max_content_length"`
}

// Collection describes one collection.
type Collection struct {
	ID          string   `json:"id"`
	Title       string   `json:"title"`
	Description string   `json:"description,omitempty"`
	CanRead     bool     `json:"can_read"`
	CanWrite    bool     `json:"can_write"`
	MediaTypes  []string `json:"media_types"`
}

// Envelope is the TAXII 2.1 object transport.
type Envelope struct {
	More    bool              `json:"more"`
	Next    string            `json:"next,omitempty"`
	Objects []json.RawMessage `json:"objects"`
}

// ManifestEntry describes one object in a collection manifest.
type ManifestEntry struct {
	ID        string    `json:"id"`
	DateAdded time.Time `json:"date_added"`
	Version   string    `json:"version"`
	MediaType string    `json:"media_type"`
}

// Manifest is the TAXII 2.1 manifest envelope.
type Manifest struct {
	More    bool            `json:"more"`
	Next    string          `json:"next,omitempty"`
	Objects []ManifestEntry `json:"objects"`
}

// Status reports the outcome of an object submission.
type Status struct {
	ID           string `json:"id"`
	Status       string `json:"status"`
	TotalCount   int    `json:"total_count"`
	SuccessCount int    `json:"success_count"`
	FailureCount int    `json:"failure_count"`
}

// storedObject is the current version of one STIX object in a collection.
type storedObject struct {
	raw     []byte // exact-size encoding; nil once the slot is superseded
	id      string
	typ     string
	version string // STIX modified (created when absent): the manifest version
	event   string // x_misp_event_uuid: the eIoC the object was shared for
	evPos   int    // index of id in its collection's byEvent[event]
	addedAt time.Time
	seq     int
}

// collection holds one collection's metadata and the current version of
// each of its objects. order is seq-ascending and date_added never
// decreases along it, so added_after and next both resolve by binary
// search. A re-share or withdrawal blanks the superseded slot in place;
// compact drops the blanks once they make up half of order.
type collection struct {
	info      Collection
	order     []storedObject
	byID      map[string]int      // id → index into order of its current version
	byEvent   map[string][]string // x_misp_event_uuid → ids whose current version names it
	dead      int
	lastAdded time.Time
}

// Server hosts TAXII collections. Safe for concurrent use.
type Server struct {
	title   string
	apiRoot string // path segment, e.g. "caisp"
	apiKey  string
	now     func() time.Time

	mu          sync.RWMutex
	collections map[string]*collection
	seq         int

	mux *http.ServeMux
}

// Option configures a Server.
type Option interface{ apply(*Server) }

type apiKeyOption string

func (o apiKeyOption) apply(s *Server) { s.apiKey = string(o) }

// WithAPIKey requires the Authorization header to equal key.
func WithAPIKey(key string) Option { return apiKeyOption(key) }

type nowOption struct{ now func() time.Time }

func (o nowOption) apply(s *Server) { s.now = o.now }

// WithNow fixes the server clock (tests).
func WithNow(now func() time.Time) Option { return nowOption{now: now} }

// NewServer creates a TAXII server with one API root.
func NewServer(title, apiRoot string, opts ...Option) *Server {
	s := &Server{
		title:       title,
		apiRoot:     apiRoot,
		now:         time.Now,
		collections: make(map[string]*collection),
	}
	for _, o := range opts {
		o.apply(s)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /taxii2/", s.handleDiscovery)
	s.mux.HandleFunc("GET /"+apiRoot+"/", s.handleAPIRoot)
	s.mux.HandleFunc("GET /"+apiRoot+"/collections/", s.handleCollections)
	s.mux.HandleFunc("GET /"+apiRoot+"/collections/{id}/", s.handleCollection)
	s.mux.HandleFunc("GET /"+apiRoot+"/collections/{id}/objects/", s.handleGetObjects)
	s.mux.HandleFunc("POST /"+apiRoot+"/collections/{id}/objects/", s.handleAddObjects)
	s.mux.HandleFunc("GET /"+apiRoot+"/collections/{id}/manifest/", s.handleManifest)
	return s
}

// AddCollection registers a collection, or updates the metadata of one
// already registered.
func (s *Server) AddCollection(id, title, description string, canWrite bool) {
	info := Collection{
		ID:          id,
		Title:       title,
		Description: description,
		CanRead:     true,
		CanWrite:    canWrite,
		MediaTypes:  []string{"application/stix+json;version=2.0"},
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.collections[id]; ok {
		c.info = info
		return
	}
	s.collections[id] = &collection{
		info:    info,
		byID:    make(map[string]int),
		byEvent: make(map[string][]string),
	}
}

// AddObjects stores STIX objects into a collection server-side (the path
// the platform uses to publish eIoCs). Each becomes the current version
// of its id; see put.
func (s *Server) AddObjects(collectionID string, objs ...stix.Object) error {
	items := make([]storedObject, 0, len(objs))
	for _, o := range objs {
		data, err := stix.Marshal(o)
		if err != nil {
			return err
		}
		c := o.GetCommon()
		version := c.Modified.Time
		if version.IsZero() {
			version = c.Created.Time
		}
		item := storedObject{raw: data, id: c.ID, typ: c.Type}
		if !version.IsZero() {
			item.version = version.UTC().Format(stix.TimestampLayout)
		}
		item.event, _ = c.ExtraString("x_misp_event_uuid")
		items = append(items, item)
	}
	n, err := s.put(collectionID, items)
	if err != nil {
		return err
	}
	if n != len(objs) {
		return fmt.Errorf("taxii: stored %d of %d objects", n, len(objs))
	}
	return nil
}

// ObjectCount reports how many objects (distinct ids) a collection holds.
func (s *Server) ObjectCount(collectionID string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if c, ok := s.collections[collectionID]; ok {
		return len(c.byID)
	}
	return 0
}

// WithdrawEvent removes from a collection every object whose current
// version was shared for the eIoC eventUUID (its x_misp_event_uuid) and
// reports how many it removed. An object whose id has since been
// re-shared for another event stays.
func (s *Server) WithdrawEvent(collectionID, eventUUID string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.collections[collectionID]
	if !ok {
		return 0
	}
	ids := c.byEvent[eventUUID]
	delete(c.byEvent, eventUUID)
	for _, id := range ids {
		c.blank(c.byID[id])
		delete(c.byID, id)
	}
	c.compact()
	return len(ids)
}

// put makes each of objs the current version of its id and reports how
// many it accepted; objects without an id or type are refused. A changed
// version replaces the stored one and re-enters the order at the tail
// with a new seq and date_added, so a poller sees each change once. A
// version byte-identical to the stored one is accepted as a no-op: it
// keeps its seq and date_added.
func (s *Server) put(collectionID string, objs []storedObject) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.collections[collectionID]
	if !ok {
		return 0, fmt.Errorf("taxii: unknown collection %q", collectionID)
	}
	// date_added must not decrease along order, even if the clock steps
	// back.
	now := s.now().UTC()
	if now.Before(c.lastAdded) {
		now = c.lastAdded
	}
	c.lastAdded = now
	stored := 0
	for _, o := range objs {
		if o.id == "" || o.typ == "" {
			continue
		}
		stored++
		i, replaced := c.byID[o.id]
		switch {
		case replaced && bytes.Equal(c.order[i].raw, o.raw):
			continue
		case replaced && c.order[i].event == o.event:
			o.evPos = c.order[i].evPos
			c.blank(i)
		case replaced:
			c.unindex(c.order[i])
			c.blank(i)
			c.index(&o)
		default:
			c.index(&o)
		}
		s.seq++
		o.raw = append(make([]byte, 0, len(o.raw)), o.raw...)
		o.seq, o.addedAt = s.seq, now
		c.byID[o.id] = len(c.order)
		c.order = append(c.order, o)
	}
	c.compact()
	return stored, nil
}

// blank marks the slot at i superseded.
func (c *collection) blank(i int) {
	c.order[i].raw = nil
	c.dead++
}

// index appends o's id to its event's withdrawal list.
func (c *collection) index(o *storedObject) {
	if o.event != "" {
		o.evPos = len(c.byEvent[o.event])
		c.byEvent[o.event] = append(c.byEvent[o.event], o.id)
	}
}

// unindex drops o's id from its event's withdrawal list in O(1): the
// list's last id moves into its place.
func (c *collection) unindex(o storedObject) {
	if o.event == "" {
		return
	}
	ids := c.byEvent[o.event]
	last := len(ids) - 1
	if o.evPos != last {
		ids[o.evPos] = ids[last]
		c.order[c.byID[ids[last]]].evPos = o.evPos
	}
	if last == 0 {
		delete(c.byEvent, o.event)
	} else {
		c.byEvent[o.event] = ids[:last]
	}
}

// compact drops superseded slots once they make up half of order, so the
// cost is amortised over the replacements that made them.
func (c *collection) compact() {
	if c.dead == 0 || 2*c.dead < len(c.order) {
		return
	}
	live := make([]storedObject, 0, len(c.order)-c.dead)
	for _, o := range c.order {
		if o.raw != nil {
			c.byID[o.id] = len(live)
			live = append(live, o)
		}
	}
	c.order, c.dead = live, 0
}

// query is a parsed GET on a collection's objects or manifest.
type query struct {
	addedAfter time.Time
	afterSeq   int // the next token: the seq of the last object already returned
	typ, id    string
	limit      int
}

func parseQuery(v url.Values) (query, error) {
	q := query{typ: v.Get("match[type]"), id: v.Get("match[id]"), limit: 100}
	if raw := v.Get("added_after"); raw != "" {
		after, err := time.Parse(time.RFC3339, raw)
		if err != nil {
			return q, errors.New("bad added_after")
		}
		q.addedAfter = after
	}
	if raw := v.Get("next"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil {
			return q, errors.New("bad next token")
		}
		q.afterSeq = n
	}
	if raw := v.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			return q, errors.New("bad limit")
		}
		q.limit = n
	}
	return q, nil
}

// find returns, in seq order, up to q.limit current versions matching q,
// and whether more follow.
func (c *collection) find(q query) ([]storedObject, bool) {
	start := sort.Search(len(c.order), func(i int) bool {
		return c.order[i].seq > q.afterSeq && c.order[i].addedAt.After(q.addedAfter)
	})
	candidates := c.order[start:]
	if q.id != "" {
		i, ok := c.byID[q.id]
		if !ok || i < start {
			return nil, false
		}
		candidates = c.order[i : i+1]
	}
	var out []storedObject
	for _, o := range candidates {
		if o.raw == nil || (q.typ != "" && o.typ != q.typ) {
			continue
		}
		if len(out) == q.limit {
			return out, true
		}
		out = append(out, o)
	}
	return out, false
}

// lookup answers the collection lookup shared by the objects and manifest
// endpoints. It writes the error response itself and then reports !ok.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (objs []storedObject, more, ok bool) {
	q, err := parseQuery(r.URL.Query())
	s.mu.RLock()
	c, known := s.collections[r.PathValue("id")]
	if known && err == nil {
		objs, more = c.find(q)
	}
	s.mu.RUnlock()
	switch {
	case !known:
		taxiiError(w, http.StatusNotFound, "unknown collection")
	case err != nil:
		taxiiError(w, http.StatusBadRequest, err.Error())
	default:
		return objs, more, true
	}
	return nil, false, false
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.apiKey != "" && r.Header.Get("Authorization") != s.apiKey {
		taxiiError(w, http.StatusUnauthorized, "invalid or missing API key")
		return
	}
	s.mux.ServeHTTP(w, r)
}

func (s *Server) handleDiscovery(w http.ResponseWriter, r *http.Request) {
	writeTAXII(w, http.StatusOK, Discovery{
		Title:    s.title,
		Default:  "/" + s.apiRoot + "/",
		APIRoots: []string{"/" + s.apiRoot + "/"},
	})
}

func (s *Server) handleAPIRoot(w http.ResponseWriter, _ *http.Request) {
	writeTAXII(w, http.StatusOK, APIRoot{
		Title:            s.title,
		Versions:         []string{"application/taxii+json;version=2.1"},
		MaxContentLength: MaxContentLength,
	})
}

func (s *Server) handleCollections(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	list := make([]Collection, 0, len(s.collections))
	for _, c := range s.collections {
		list = append(list, c.info)
	}
	s.mu.RUnlock()
	sort.Slice(list, func(i, j int) bool { return list[i].ID < list[j].ID })
	writeTAXII(w, http.StatusOK, map[string]any{"collections": list})
}

func (s *Server) handleCollection(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	c, ok := s.collections[r.PathValue("id")]
	var info Collection
	if ok {
		info = c.info
	}
	s.mu.RUnlock()
	if !ok {
		taxiiError(w, http.StatusNotFound, "unknown collection")
		return
	}
	writeTAXII(w, http.StatusOK, info)
}

func (s *Server) handleGetObjects(w http.ResponseWriter, r *http.Request) {
	objs, more, ok := s.lookup(w, r)
	if !ok {
		return
	}
	env := Envelope{More: more, Objects: make([]json.RawMessage, 0, len(objs))}
	for _, o := range objs {
		env.Objects = append(env.Objects, o.raw)
	}
	if more {
		env.Next = strconv.Itoa(objs[len(objs)-1].seq)
	}
	writeTAXII(w, http.StatusOK, env)
}

func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	objs, more, ok := s.lookup(w, r)
	if !ok {
		return
	}
	manifest := Manifest{More: more, Objects: make([]ManifestEntry, 0, len(objs))}
	for _, o := range objs {
		version := o.version
		if version == "" {
			version = o.addedAt.Format(stix.TimestampLayout)
		}
		manifest.Objects = append(manifest.Objects, ManifestEntry{
			ID:        o.id,
			DateAdded: o.addedAt,
			Version:   version,
			MediaType: "application/stix+json;version=2.0",
		})
	}
	if more {
		manifest.Next = strconv.Itoa(objs[len(objs)-1].seq)
	}
	writeTAXII(w, http.StatusOK, manifest)
}

func (s *Server) handleAddObjects(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	c, ok := s.collections[r.PathValue("id")]
	canWrite := ok && c.info.CanWrite
	s.mu.RUnlock()
	if !ok {
		taxiiError(w, http.StatusNotFound, "unknown collection")
		return
	}
	if !canWrite {
		taxiiError(w, http.StatusForbidden, "collection is read-only")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxContentLength))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			taxiiError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("body exceeds max_content_length %d", MaxContentLength))
			return
		}
		taxiiError(w, http.StatusBadRequest, "read body: "+err.Error())
		return
	}
	var env Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		taxiiError(w, http.StatusBadRequest, "bad envelope: "+err.Error())
		return
	}
	items := make([]storedObject, 0, len(env.Objects))
	for _, raw := range env.Objects {
		var head struct {
			ID       string `json:"id"`
			Type     string `json:"type"`
			Modified string `json:"modified"`
			Created  string `json:"created"`
			Event    string `json:"x_misp_event_uuid"`
		}
		if json.Unmarshal(raw, &head) != nil {
			continue
		}
		version := head.Modified
		if version == "" {
			version = head.Created
		}
		items = append(items, storedObject{raw: raw, id: head.ID, typ: head.Type, version: version, event: head.Event})
	}
	stored, err := s.put(r.PathValue("id"), items)
	if err != nil {
		taxiiError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeTAXII(w, http.StatusAccepted, Status{
		ID:           fmt.Sprintf("status-%d", s.now().UnixNano()),
		Status:       "complete",
		TotalCount:   len(env.Objects),
		SuccessCount: stored,
		FailureCount: len(env.Objects) - stored,
	})
}

func writeTAXII(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", ContentType)
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func taxiiError(w http.ResponseWriter, status int, msg string) {
	writeTAXII(w, status, map[string]string{"title": msg})
}
