// HTTP surface: /debug/bundle (list + fetch captured incidents) and
// /debug/top (live offender tables). Both are read-only JSON views of
// the recorder, mounted next to /debug/health and /debug/trace in
// kfserver; `streamkf bundle` and the `streamkf top` offenders pane
// are their CLI consumers.

package diag

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// BundleInfo is one row of the /debug/bundle listing.
type BundleInfo struct {
	ID         string    `json:"id"`
	CapturedAt time.Time `json:"captured_at"`
	Reason     string    `json:"reason"`
	// Source is "memory" or "disk" (disk rows survive restarts).
	Source string `json:"source"`
}

// BundleHandler serves the incident spool:
//
//	GET /debug/bundle            → JSON list of BundleInfo, oldest first
//	GET /debug/bundle?id=<id>    → the full bundle document
//
// Fetch prefers the in-memory spool and falls back to the disk spool,
// so bundles from a previous process remain reachable.
func BundleHandler(r *Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		id := req.URL.Query().Get("id")
		if id == "" {
			list := r.listBundles()
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(list)
			return
		}
		for _, b := range r.Bundles() {
			if b.ID == id {
				enc := json.NewEncoder(w)
				enc.SetIndent("", "  ")
				enc.Encode(b)
				return
			}
		}
		// Not in memory: try the disk spool. The ID is sanitized at
		// capture time; reject anything that could escape the dir.
		if r.opts.SpoolDir != "" && id == filepath.Base(id) && !strings.ContainsAny(id, "/\\") {
			if data, err := os.ReadFile(filepath.Join(r.opts.SpoolDir, id+".json")); err == nil {
				w.Write(data)
				return
			}
		}
		http.Error(w, `{"error":"no such bundle"}`, http.StatusNotFound)
	})
}

func (r *Recorder) listBundles() []BundleInfo {
	seen := make(map[string]bool)
	list := []BundleInfo{} // non-nil: an empty index serves as [] not null
	if r.opts.SpoolDir != "" {
		for _, name := range spoolFiles(r.opts.SpoolDir) {
			id := strings.TrimSuffix(name, ".json")
			info := BundleInfo{ID: id, Source: "disk"}
			if fi, err := os.Stat(filepath.Join(r.opts.SpoolDir, name)); err == nil {
				info.CapturedAt = fi.ModTime()
			}
			seen[id] = true
			list = append(list, info)
		}
	}
	for _, b := range r.Bundles() {
		if seen[b.ID] {
			// Already listed from disk; upgrade the row with the exact
			// capture metadata the memory copy carries.
			for i := range list {
				if list[i].ID == b.ID {
					list[i].CapturedAt = b.CapturedAt
					list[i].Reason = b.Reason
				}
			}
			continue
		}
		list = append(list, BundleInfo{ID: b.ID, CapturedAt: b.CapturedAt, Reason: b.Reason, Source: "memory"})
	}
	return list
}

// TopPayload is the /debug/top document: every offender table and the
// most rows one returns.
type TopPayload struct {
	// Sketches maps table name → rows, count descending, then ID. On a
	// server every row is exact, read at request time from the stream
	// records (corrections, bytes, stale) and the auditor (violations).
	Sketches map[string][]Item `json:"sketches"`
	// K is the rows a table returns when asked for all (?n=0).
	K int `json:"k"`
}

// TopHandler serves /debug/top: the live offender tables. ?n= bounds
// rows per table (default 10; 0 = K rows).
func TopHandler(r *Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		n := 10
		if q := req.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 0 {
				http.Error(w, `{"error":"n must be a non-negative integer"}`, http.StatusBadRequest)
				return
			}
			n = v
		}
		payload := TopPayload{Sketches: r.Top(n), K: r.opts.K}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(payload)
	})
}
