package engine

// snapshot.go persists the canonical-tree cache across restarts.  The
// cache is what makes the serving story fast — isomorphic guests answer
// by remapping — but until now it evaporated on every deploy, so a
// restarted server paid the full cold-start stampede again.  Snapshot
// writes every cached embedding to a stream and Warm reads one back,
// re-validating each record before it may enter the cache.
//
// The format is line-oriented, versioned, and built from parts that
// already exist: the canonical code (the cache key) and the
// core.WriteResult / core.ReadResult embedding serialization.
//
//	xtreesim-cache v1
//	profile strict=<bool> height=<h>
//	entry <canonical-code>
//	<core.WriteResult body, ending with assign lines>
//	end
//	entry ...
//
// Records are written in least-recently-used-first order, so warming
// replays the accesses and reproduces the LRU recency the snapshot saw.
//
// Warm trusts nothing: a record whose embedding fails core.ReadResult's
// re-validation, whose guest no longer canonicalizes to the recorded
// code, or whose host height contradicts the engine's pinned profile is
// counted in WarmStats.Skipped and dropped — never fatal, because a
// stale or truncated snapshot must degrade to a cold start, not a
// crashed boot.  A profile mismatch (snapshot taken under different
// embedding options) skips every record: a cached result is only sound
// under the options it was computed with.
import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"xtreesim/internal/core"
)

// snapshotMagic is the versioned header of one cache snapshot section.
const snapshotMagic = "xtreesim-cache v1"

// WarmStats reports what one Warm call did: Loaded records entered the
// cache, Skipped records were corrupt, stale, or profile-mismatched.
type WarmStats struct {
	Loaded  int
	Skipped int
}

// ErrNoCache is returned by Snapshot and Warm on an engine whose cache
// is disabled (Config.CacheSize < 0): there is nothing to persist.
var errNoCache = fmt.Errorf("engine: caching disabled")

// SnapshotProfile renders the profile line an engine with the given
// options writes, exported so the pool layer can route snapshot sections
// back to the engine that owns them.
func SnapshotProfile(strict bool, height int) string {
	return fmt.Sprintf("profile strict=%t height=%d", strict, height)
}

// Snapshot writes every cached embedding to w in the v1 snapshot format
// and returns the number of records written.  The engine stays fully
// serviceable during the snapshot; entries cached after their shard was
// copied are simply not included.
func (e *Engine) Snapshot(w io.Writer) (int, error) {
	if e.cache == nil {
		return 0, errNoCache
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, snapshotMagic)
	fmt.Fprintln(bw, SnapshotProfile(e.opts.Strict, e.opts.Height))
	n := 0
	for _, se := range e.cache.snapshotEntries() {
		fmt.Fprintf(bw, "entry %s\n", se.key)
		if err := core.WriteResult(bw, se.ent.res); err != nil {
			return n, err
		}
		fmt.Fprintln(bw, "end")
		n++
	}
	return n, bw.Flush()
}

// Warm reads one v1 snapshot section from r and fills the cache with
// every record that survives validation.  Individual bad records are
// skipped and counted, never fatal; only a missing/foreign header — a
// file that is not a snapshot at all — is an error.
func (e *Engine) Warm(r io.Reader) (WarmStats, error) {
	if e.cache == nil {
		return WarmStats{}, errNoCache
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26) // codes and node lists can be long
	if !sc.Scan() || sc.Text() != snapshotMagic {
		return WarmStats{}, fmt.Errorf("engine: bad or missing snapshot header")
	}
	profileOK := true
	if sc.Scan() {
		if sc.Text() != SnapshotProfile(e.opts.Strict, e.opts.Height) {
			// Records from a different option profile are unusable here,
			// but the file itself is fine: count them all as skipped.
			profileOK = false
		}
	}
	var ws WarmStats
	var code string
	var body strings.Builder
	inRecord := false
	flush := func() {
		if !inRecord {
			return
		}
		inRecord = false
		if profileOK && e.warmRecord(code, body.String()) {
			ws.Loaded++
			e.warmLoaded.Add(1)
		} else {
			ws.Skipped++
			e.warmSkipped.Add(1)
		}
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "entry "):
			// A new entry while one is open means the previous record
			// lost its "end" line (truncated write): count it skipped.
			if inRecord {
				inRecord = false
				ws.Skipped++
				e.warmSkipped.Add(1)
			}
			code = strings.TrimPrefix(line, "entry ")
			body.Reset()
			inRecord = true
		case line == "end":
			flush()
		case inRecord:
			body.WriteString(line)
			body.WriteByte('\n')
		case strings.TrimSpace(line) == "":
		default:
			// Garbage between records: tolerated, the next "entry" line
			// resynchronizes the parse.
		}
	}
	if err := sc.Err(); err != nil {
		return ws, err
	}
	// A record still open at EOF was truncated mid-write.
	if inRecord {
		ws.Skipped++
		e.warmSkipped.Add(1)
	}
	return ws, nil
}

// warmRecord validates one snapshot record and, when sound, inserts it
// into the cache.  It reports whether the record was loaded.
func (e *Engine) warmRecord(code, body string) bool {
	if code == "" {
		return false
	}
	// ReadResult re-runs the invariant checker, so a corrupt or
	// hand-edited embedding cannot enter the cache.
	res, err := core.ReadResult(strings.NewReader(body))
	if err != nil {
		return false
	}
	// Stale guard: the guest must still canonicalize to the code the
	// record claims, or remapping onto future isomorphic guests would be
	// silently wrong.
	gotCode, order := res.Guest.CanonicalCode()
	if gotCode != code {
		return false
	}
	// A height-pinned engine only caches embeddings into that host.
	if e.opts.Height > 0 && res.Host.Height() != e.opts.Height {
		return false
	}
	e.cache.put(res.Guest.CanonicalHash(), code, newCacheEntry(res, order))
	return true
}
