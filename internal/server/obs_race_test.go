package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"patchindex"
	"patchindex/internal/obs"
)

// TestObservabilityEndpointsUnderLoad hammers the HTTP observability surface
// (/metrics, /stats, /queries, /trace/<id>?format=chrome) while eight client
// goroutines run a query workload — some statements traced — so the data
// races the endpoints could hide show up under -race.
func TestObservabilityEndpointsUnderLoad(t *testing.T) {
	eng, err := patchindex.New(patchindex.Config{TraceSample: 2, TraceHistory: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	loadBigTable(t, eng, 20_000)
	if _, err := eng.Exec("CREATE PATCHINDEX ON data(u) UNIQUE THRESHOLD 0.5"); err != nil {
		t.Fatal(err)
	}
	s := startServer(t, Config{Engine: eng})

	const (
		clients    = 8
		perClient  = 25
		httpProbes = 4
	)
	var (
		wg       sync.WaitGroup
		stop     atomic.Bool
		lastID   atomic.Uint64
		queryErr atomic.Pointer[error]
	)

	// Query workload: each client alternates traced and untraced statements.
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			c, err := Dial(s.Addr())
			if err != nil {
				queryErr.CompareAndSwap(nil, &err)
				return
			}
			defer c.Close()
			for j := 0; j < perClient; j++ {
				c.Trace(j%2 == 0)
				res, err := c.Query("SELECT COUNT(DISTINCT u) FROM data")
				if err != nil {
					queryErr.CompareAndSwap(nil, &err)
					return
				}
				if res.TraceID != 0 {
					lastID.Store(res.TraceID)
				}
			}
		}(i)
	}

	// HTTP probes: scrape every observability endpoint until the workload ends.
	probeErrs := make(chan error, 64)
	var probes sync.WaitGroup
	for i := 0; i < httpProbes; i++ {
		probes.Add(1)
		go func() {
			defer probes.Done()
			for !stop.Load() {
				for _, path := range []string{"/metrics", "/stats", "/queries"} {
					if _, _, err := httpGet(s, path); err != nil {
						select {
						case probeErrs <- err:
						default:
						}
						return
					}
				}
				if id := lastID.Load(); id != 0 {
					// The trace may already have been evicted; only transport
					// errors count.
					if _, _, err := httpGet(s, fmt.Sprintf("/trace/%d?format=chrome", id)); err != nil {
						select {
						case probeErrs <- err:
						default:
						}
						return
					}
				}
			}
		}()
	}

	wg.Wait()
	stop.Store(true)
	probes.Wait()
	close(probeErrs)
	if errp := queryErr.Load(); errp != nil {
		t.Fatalf("query workload: %v", *errp)
	}
	for err := range probeErrs {
		t.Fatalf("http probe: %v", err)
	}

	// After the load: /queries serves non-empty JSON history.
	code, body, err := httpGet(s, "/queries")
	if err != nil || code != http.StatusOK {
		t.Fatalf("/queries = %d, %v", code, err)
	}
	var summaries []obs.QuerySummary
	if err := json.Unmarshal([]byte(body), &summaries); err != nil {
		t.Fatalf("/queries not JSON: %v\n%s", err, body)
	}
	if len(summaries) == 0 {
		t.Fatal("/queries empty after traced workload")
	}

	// /stats carries the PatchIndex health section next to the metrics.
	code, body, err = httpGet(s, "/stats")
	if err != nil || code != http.StatusOK {
		t.Fatalf("/stats = %d, %v", code, err)
	}
	var stats struct {
		Counters     map[string]int64         `json:"counters"`
		PatchIndexes []patchindex.IndexHealth `json:"patchindexes"`
	}
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatalf("/stats not JSON: %v\n%s", err, body)
	}
	if len(stats.PatchIndexes) != 1 {
		t.Fatalf("/stats patchindexes = %+v, want the data(u) index", stats.PatchIndexes)
	}
	h := stats.PatchIndexes[0]
	if h.Table != "data" || h.Column != "u" || h.Patches <= 0 || h.PatchRatio <= 0 {
		t.Fatalf("index health = %+v", h)
	}

	// A chrome export of a retained trace parses and carries complete events.
	id := lastID.Load()
	if eng.Tracer().Get(id) == nil {
		id = eng.Tracer().Recent(1)[0].ID
	}
	code, body, err = httpGet(s, fmt.Sprintf("/trace/%d?format=chrome", id))
	if err != nil || code != http.StatusOK {
		t.Fatalf("/trace/%d?format=chrome = %d, %v", id, code, err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("chrome export not JSON: %v\n%s", err, body)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome export has no events")
	}
	if !strings.Contains(body, `"ph"`) || !strings.Contains(body, `"ts"`) || !strings.Contains(body, `"dur"`) {
		t.Fatalf("chrome export missing ph/ts/dur fields:\n%s", body)
	}
}

// httpGet fetches one HTTP path from the test server.
// TestShowQueriesOverWire: SHOW QUERIES over the wire lists the same
// traces, newest first, as the /queries JSON document.
func TestShowQueriesOverWire(t *testing.T) {
	s := startServer(t, Config{})
	c := dial(t, s)
	c.Trace(true)
	for _, q := range []string{"CREATE TABLE q (v BIGINT)", "INSERT INTO q VALUES (1), (2)", "SELECT v FROM q ORDER BY v"} {
		if _, err := c.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	// Untraced, so SHOW QUERIES itself does not enter the history.
	c.Trace(false)
	res, err := c.Query("SHOW QUERIES")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) == 0 || res.Columns[0] != "trace_id" {
		t.Fatalf("SHOW QUERIES columns = %v", res.Columns)
	}
	var wire []string
	for _, row := range res.Rows {
		wire = append(wire, row[0])
	}

	code, body, err := httpGet(s, "/queries")
	if err != nil || code != http.StatusOK {
		t.Fatalf("GET /queries: code=%d err=%v", code, err)
	}
	var doc []obs.QuerySummary
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/queries is not JSON: %v\n%s", err, body)
	}
	var js []string
	for _, q := range doc {
		js = append(js, fmt.Sprint(q.ID))
	}
	if len(wire) != 3 || strings.Join(wire, ",") != strings.Join(js, ",") {
		t.Fatalf("SHOW QUERIES trace ids %v, /queries ids %v (want 3 each)", wire, js)
	}
}

func httpGet(s *Server, path string) (int, string, error) {
	client := http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + s.Addr() + path)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body), err
}
