package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/journal"
)

// TestRemovedShardConfig pins the compatibility contract of the removed
// config.shards knob. Journals written while it existed may carry it, and
// replay decodes records with json.Unmarshal, which ignores unknown
// fields: such a journal must still replay and serve the job's routedb
// byte-identically. New submissions decode with DisallowUnknownFields, so
// a request that still sends "shards" is refused with 400 rather than
// silently accepted.
func TestRemovedShardConfig(t *testing.T) {
	ckt := readExample(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.journal")

	svc1, err := Open(Options{Workers: 1, JournalPath: path, Logf: silentLogf})
	if err != nil {
		t.Fatal(err)
	}
	j1 := submitAndWait(t, svc1, ckt)
	wantDB := j1.Payload().RouteDB
	if err := svc1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Copy the journal, giving the submitted and terminal records a
	// recorded config that still carries shards.
	jl, recs, err := journal.Open(path, journal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	legacy := filepath.Join(dir, "legacy.journal")
	out, _, err := journal.Open(legacy, journal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	rewritten := 0
	for _, rec := range recs {
		data := rec.Data
		if rec.Kind == journal.KindSubmitted || rec.Kind == journal.KindTerminal {
			var m map[string]any
			if err := json.Unmarshal(data, &m); err != nil {
				t.Fatal(err)
			}
			m["config"] = map[string]any{"use_constraints": true, "shards": 4}
			if data, err = json.Marshal(m); err != nil {
				t.Fatal(err)
			}
			rewritten++
		}
		if err := out.Append(rec.Kind, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	if rewritten != 2 {
		t.Fatalf("rewrote %d submitted/terminal records, want 2", rewritten)
	}

	svc2 := openJournaled(t, legacy)
	ts := httptest.NewServer(svc2.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/jobs/" + j1.ID + "/routedb")
	if err != nil {
		t.Fatal(err)
	}
	gotDB, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routedb of replayed job: status %d: %s", resp.StatusCode, gotDB)
	}
	if !bytes.Equal(gotDB, wantDB) {
		t.Fatal("routedb served after replaying a journal with shards differs from pre-restart bytes")
	}

	body, err := json.Marshal(map[string]any{
		"circuit": ckt,
		"config":  map[string]any{"use_constraints": true, "shards": 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "shards") {
		t.Fatalf("submission with shards: status %d: %s (want 400 naming the field)", resp.StatusCode, msg)
	}
}
