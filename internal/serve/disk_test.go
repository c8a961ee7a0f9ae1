package serve

import (
	"bytes"
	"context"
	"net/http"
	"strings"
	"testing"

	"pblparallel/internal/obs"
	"pblparallel/internal/store"
)

func openTestStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(st.Close)
	return st
}

// TestCacheDiskReadThrough pins the tiering contract at the cache
// level: a cold memory cache over a populated store serves the entry
// as a disk hit without running compute.
func TestCacheDiskReadThrough(t *testing.T) {
	dir := t.TempDir()
	body := []byte(`{"seed": 9, "speedup": 2.8}`)
	k := NewKey([]byte("disk|read-through"))

	warm := NewCache(8, nil)
	warm.disk = openTestStore(t, dir)
	got, status, err := warm.Do(context.Background(), k, func() ([]byte, error) { return body, nil })
	if err != nil || status != CacheMiss || !bytes.Equal(got, body) {
		t.Fatalf("populate: status=%v err=%v", status, err)
	}
	warm.disk.Flush()

	cold := NewCache(8, nil)
	cold.disk = openTestStore(t, dir) // fresh store over the same files
	got, status, err = cold.Do(context.Background(), k, func() ([]byte, error) {
		t.Fatal("compute ran despite a persisted entry")
		return nil, nil
	})
	if err != nil || status != CacheDiskHit || !bytes.Equal(got, body) {
		t.Fatalf("read-through: status=%v err=%v body=%q", status, err, got)
	}
	if st := cold.Stats(); st.DiskHits != 1 || st.Computes != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// The disk hit was promoted into memory: the next read is a plain
	// memory hit.
	if _, status, _ := cold.Do(context.Background(), k, nil); status != CacheHit {
		t.Fatalf("disk hit not promoted to the memory tier: status %v", status)
	}
}

// TestCacheEvictionSpillsToDisk asserts the write-behind half: an
// entry evicted from a full memory tier lands on disk and is served
// from there afterwards.
func TestCacheEvictionSpillsToDisk(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(1, nil)
	c.disk = openTestStore(t, dir)
	ka, kb := NewKey([]byte("spill|a")), NewKey([]byte("spill|b"))
	bodyA := []byte("evict me")

	if _, _, err := c.Do(context.Background(), ka, func() ([]byte, error) { return bodyA, nil }); err != nil {
		t.Fatal(err)
	}
	// Capacity 1: computing B evicts A, which must spill.
	if _, _, err := c.Do(context.Background(), kb, func() ([]byte, error) { return []byte("newer"), nil }); err != nil {
		t.Fatal(err)
	}
	c.disk.Flush()

	got, status, err := c.Do(context.Background(), ka, func() ([]byte, error) {
		t.Fatal("compute ran for a spilled entry")
		return nil, nil
	})
	if err != nil || status != CacheDiskHit || !bytes.Equal(got, bodyA) {
		t.Fatalf("spilled read: status=%v err=%v body=%q", status, err, got)
	}
}

// TestCacheByteEvictionSpillsToDisk: an entry the byte bound evicts,
// below the entry bound, counts in Evicted and spills like any other.
func TestCacheByteEvictionSpillsToDisk(t *testing.T) {
	c := NewCache(2, nil) // 8 KiB of bodies
	c.disk = openTestStore(t, t.TempDir())
	fill(t, c, "bytes|a", 6<<10)
	fill(t, c, "bytes|b", 6<<10) // 12 KiB: evicts a by bytes
	if s := c.Stats(); s.Entries != 1 || s.Evicted != 1 {
		t.Fatalf("stats %+v, want a evicted by bytes", s)
	}
	c.disk.Flush()
	got, status, err := c.Do(context.Background(), NewKey([]byte("bytes|a")), func() ([]byte, error) {
		t.Fatal("compute ran for a spilled entry")
		return nil, nil
	})
	if err != nil || status != CacheDiskHit || !bytes.Equal(got, make([]byte, 6<<10)) {
		t.Fatalf("spilled read: status=%v err=%v len=%d", status, err, len(got))
	}
}

// TestServerRestartServesFromDisk is the in-process shape of the
// cache-persistence CI job: a second server over the same cache
// directory answers with byte-identical responses, marked X-Cache:
// disk, with the hit visible in /metrics.
func TestServerRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	const req = `{"seed": 77}`

	reg1 := obs.NewRegistry()
	st1, err := store.Open(dir, store.Options{Registry: reg1})
	if err != nil {
		t.Fatal(err)
	}
	_, ts1 := newTestServer(t, Config{Workers: 2, Registry: reg1, disk: st1})
	respMiss, bodyMiss := post(t, ts1, "/v1/run", req, nil)
	if respMiss.StatusCode != http.StatusOK || respMiss.Header.Get("X-Cache") != string(CacheMiss) {
		t.Fatalf("populate: status %d X-Cache %q", respMiss.StatusCode, respMiss.Header.Get("X-Cache"))
	}
	st1.Flush() // the daemon's SIGTERM drain; explicit here

	// "Restart": a second server, cold memory, same directory.
	reg2 := obs.NewRegistry()
	st2, err := store.Open(dir, store.Options{Registry: reg2})
	if err != nil {
		t.Fatal(err)
	}
	srv2, ts2 := newTestServer(t, Config{Workers: 2, Registry: reg2, disk: st2})
	respDisk, bodyDisk := post(t, ts2, "/v1/run", req, nil)
	if respDisk.StatusCode != http.StatusOK {
		t.Fatalf("restart: status %d", respDisk.StatusCode)
	}
	if got := respDisk.Header.Get("X-Cache"); got != string(CacheDiskHit) {
		t.Fatalf("restart X-Cache = %q, want %q", got, CacheDiskHit)
	}
	if !bytes.Equal(bodyDisk, bodyMiss) {
		t.Fatal("restarted response is not byte-identical")
	}
	if st := srv2.Stats(); st.Store.DiskHits != 1 || st.Cache.DiskHits != 1 {
		t.Fatalf("restart stats: store=%+v cache=%+v", st.Store, st.Cache)
	}

	// The CI job's /metrics assertion, same source of truth.
	resp, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "store_disk_hits_total ") {
			found = true
			if !strings.HasSuffix(strings.TrimSpace(line), " 1") && !strings.HasSuffix(strings.TrimSpace(line), "\t1") {
				t.Fatalf("store_disk_hits_total exposition: %q", line)
			}
		}
	}
	if !found {
		t.Fatal("store_disk_hits_total missing from /metrics")
	}

	// A third request on the restarted server is a plain memory hit —
	// the disk hit was promoted.
	respHit, _ := post(t, ts2, "/v1/run", req, nil)
	if got := respHit.Header.Get("X-Cache"); got != string(CacheHit) {
		t.Fatalf("post-promotion X-Cache = %q, want hit", got)
	}
}
