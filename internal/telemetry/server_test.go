package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// startTestServer serves a populated testObserver on a loopback port and
// registers cleanup.
func startTestServer(t *testing.T) (*Server, *Observer) {
	t.Helper()
	c := testObserver()
	c.CellStart(0, "vvadd", "O3+EVE-8")
	c.CellDone(0, 1, 2, sim.Result{Kernel: "vvadd", System: "O3+EVE-8", Cycles: 4242}, 3*time.Millisecond)
	s, err := serve("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s, c
}

// get fetches one path from the test server.
func get(t *testing.T, s *Server, path string) (int, string, string) {
	t.Helper()
	resp, err := http.Get("http://" + s.Addr() + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

func TestServerStatusEndpoint(t *testing.T) {
	s, _ := startTestServer(t)
	code, ctype, body := get(t, s, "/status")
	if code != http.StatusOK {
		t.Fatalf("/status = %d, want 200", code)
	}
	if ctype != "application/json" {
		t.Errorf("/status content-type = %q, want application/json", ctype)
	}
	var st Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/status body is not JSON: %v\n%s", err, body)
	}
	if st.Schema != StatusSchema || st.Done != 1 || st.Total != 2 {
		t.Errorf("status = %+v, want schema %s with 1/2 done", st, StatusSchema)
	}
	if st.ElapsedSec != 10 {
		t.Errorf("elapsed_sec = %v, want 10 under the injected clock", st.ElapsedSec)
	}
}

func TestServerMetricsEndpoint(t *testing.T) {
	s, _ := startTestServer(t)
	code, ctype, body := get(t, s, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d, want 200", code)
	}
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("/metrics content-type = %q, want text/plain", ctype)
	}
	for _, want := range []string{
		"eve_sweep_cells_done 1",
		"eve_sweep_cells_total 2",
		`eve_cell_wall_seconds_bucket{le="+Inf"} 1`,
		"eve_host_goroutines",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics lacks %q:\n%s", want, body)
		}
	}
}

func TestServerPprofEndpoint(t *testing.T) {
	s, _ := startTestServer(t)
	code, _, body := get(t, s, "/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/ = %d, want 200", code)
	}
	if !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ index lacks profile links:\n%.200s", body)
	}
}

func TestServerUnknownPath(t *testing.T) {
	s, _ := startTestServer(t)
	if code, _, _ := get(t, s, "/nope"); code != http.StatusNotFound {
		t.Errorf("/nope = %d, want 404", code)
	}
	code, _, body := get(t, s, "/")
	if code != http.StatusOK || !strings.Contains(body, "/status") {
		t.Errorf("index = %d %q, want a 200 endpoint listing", code, body)
	}
}

func TestServeRejectsBadAddr(t *testing.T) {
	if _, err := serve("256.0.0.1:bogus", newObserver(nil, nil, true)); err == nil {
		t.Fatal("Serve accepted an unusable address")
	}
}
