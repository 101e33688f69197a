package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/wire"
)

// TestRemovedShardConfig pins the compatibility contract of the removed
// config knobs, config.shards and config.workers. Journals written while
// they existed may carry them, and replay decodes records with
// json.Unmarshal, which ignores unknown fields: such a journal must
// still replay and serve the job's routedb byte-identically. New
// submissions decode with DisallowUnknownFields, so a request that still
// sends a removed field is refused — 400 over HTTP, CodeBadRequest over
// wire v2 — with a message naming the field, rather than silently
// accepted.
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
	jl, recs, err := journal.Open(path, journal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	for _, removed := range []struct {
		field string
		value int
	}{{"shards", 4}, {"workers", 2}} {
		legacyCfg := map[string]any{"use_constraints": true, removed.field: removed.value}

		// Copy the journal, giving the submitted and terminal records a
		// recorded config that still carries the removed field.
		legacy := filepath.Join(dir, removed.field+".journal")
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
				m["config"] = legacyCfg
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
			t.Fatalf("%s: rewrote %d submitted/terminal records, want 2", removed.field, rewritten)
		}

		svc2 := openJournaled(t, legacy)
		ts := httptest.NewServer(svc2.Handler())
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
			t.Fatalf("%s: routedb of replayed job: status %d: %s", removed.field, resp.StatusCode, gotDB)
		}
		if !bytes.Equal(gotDB, wantDB) {
			t.Fatalf("routedb served after replaying a journal with %s differs from pre-restart bytes", removed.field)
		}

		cfgJSON, err := json.Marshal(legacyCfg)
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(map[string]any{"circuit": ckt, "config": json.RawMessage(cfgJSON)})
		if err != nil {
			t.Fatal(err)
		}
		resp, err = http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), removed.field) {
			t.Fatalf("HTTP submission with %s: status %d: %s (want 400 naming the field)", removed.field, resp.StatusCode, msg)
		}
		ts.Close()

		c := dialWire(t, startWire(t, svc2))
		var re *wire.RemoteError
		_, err = c.SubmitEngine(ckt, cfgJSON, engine.DefaultName, 0)
		if !errors.As(err, &re) || re.Code != wire.CodeBadRequest || !strings.Contains(re.Msg, removed.field) {
			t.Fatalf("wire v2 submission with %s: %v (want CodeBadRequest naming the field)", removed.field, err)
		}
	}
}

// TestRemovedSteinerEngine pins the compatibility contract of the removed
// "steiner" engine, whose routing databases were byte-identical to the
// sequential baseline's. Journal replay never resolves engine names, so
// a journal recorded while steiner existed still replays, reports the
// engine it was routed with and serves its routedb byte-identically. A
// new submission naming steiner is refused through ErrBadEngine — 400
// over HTTP with the registered engines listed, CodeBadRequest over
// wire v2.
func TestRemovedSteinerEngine(t *testing.T) {
	ckt := readExample(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.journal")

	svc1, err := Open(Options{Workers: 1, JournalPath: path, Logf: silentLogf})
	if err != nil {
		t.Fatal(err)
	}
	jc := DefaultJobConfig()
	jc.Engine = "sequential"
	sub, err := svc1.Submit(SubmitRequest{Circuit: ckt, Config: &jc})
	if err != nil {
		t.Fatal(err)
	}
	j1 := sub.Job
	<-j1.Done()
	if st := j1.Snapshot(); st.State != Done {
		t.Fatalf("job %s: state %s, error %q", j1.ID, st.State, st.Error)
	}
	wantDB := j1.Payload().RouteDB
	if err := svc1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	jl, recs, err := journal.Open(path, journal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	// Copy the journal, recording the job as routed by steiner.
	legacy := filepath.Join(dir, "steiner.journal")
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
			if m["engine"] != "sequential" {
				t.Fatalf("journal record kind %d engine = %v, want sequential", rec.Kind, m["engine"])
			}
			m["engine"] = "steiner"
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
	if st := pollDone(t, ts.URL, j1.ID); st.State != Done || st.Engine != "steiner" {
		t.Fatalf("replayed steiner job: state %s, engine %q", st.State, st.Engine)
	}
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
		t.Fatalf("routedb of replayed steiner job: status %d: %s", resp.StatusCode, gotDB)
	}
	if !bytes.Equal(gotDB, wantDB) {
		t.Fatal("routedb served after replaying a steiner journal differs from pre-restart bytes")
	}

	body, err := json.Marshal(map[string]any{"circuit": ckt, "config": map[string]any{"engine": "steiner"}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("HTTP submission naming steiner: status %d: %s (want 400)", resp.StatusCode, msg)
	}
	for _, eng := range []string{"concurrent", "sequential"} {
		if !strings.Contains(string(msg), eng) {
			t.Fatalf("rejection message %q does not list %q", msg, eng)
		}
	}

	c := dialWire(t, startWire(t, svc2))
	var re *wire.RemoteError
	if _, err := c.SubmitEngine(ckt, nil, "steiner", 0); !errors.As(err, &re) || re.Code != wire.CodeBadRequest {
		t.Fatalf("wire v2 submission naming steiner: %v (want CodeBadRequest)", err)
	}
}
