package moviedb

import (
	"container/list"
	"sync"
)

// DefaultDiskCacheBytes is the chunk-cache capacity used when DiskConfig
// leaves CacheBytes zero: large enough that a handful of hot movies stream
// entirely from memory, small enough to be irrelevant next to the movies
// themselves.
const DefaultDiskCacheBytes = 8 << 20

// chunkKey identifies one cached chunk. The movie component is a process-
// unique instance id (not the name), so deleting and recreating a movie can
// never serve stale bytes. The frame count disambiguates the tail chunk:
// full chunks are append-stable, but a partial tail chunk grows with every
// Recorder.Append, so snapshots taken at different lengths key different
// entries and the shorter ones simply age out.
type chunkKey struct {
	movie  uint64
	chunk  int64
	frames int32
}

type chunkEntry struct {
	key  chunkKey
	data []byte
}

// CacheStats counts chunk-cache outcomes since the cache was created.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	// Bytes is the current resident size; CapBytes the configured bound.
	Bytes    int64
	CapBytes int64
}

// ChunkCache is a bounded LRU over disk-segment chunks, shared by every
// source a DiskStore (or a whole sharded set of disk stores) hands out.
// Cached chunk buffers are immutable once inserted: sources slice frames
// straight out of them, and eviction only drops the cache's reference, so
// an in-flight source keeps its current chunk alive while the next reader
// re-loads from disk. The cache therefore bounds cache memory, while each
// source independently holds at most one chunk window — the same resident
// guarantee the lazy synthetic sources give.
type ChunkCache struct {
	mu       sync.Mutex
	capBytes int64
	used     int64
	ll       *list.List // front = most recent; values are *chunkEntry
	entries  map[chunkKey]*list.Element

	hits, misses, evictions int64
}

// NewChunkCache returns an empty cache bounded to capBytes (<= 0 selects
// DefaultDiskCacheBytes).
func NewChunkCache(capBytes int64) *ChunkCache {
	if capBytes <= 0 {
		capBytes = DefaultDiskCacheBytes
	}
	return &ChunkCache{
		capBytes: capBytes,
		ll:       list.New(),
		entries:  make(map[chunkKey]*list.Element),
	}
}

// get returns the cached chunk for key, promoting it to most-recent.
func (c *ChunkCache) get(key chunkKey) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*chunkEntry).data, true
}

// put inserts a loaded chunk, evicting least-recently-used entries until
// the capacity bound holds. Chunks larger than the whole cache are not
// admitted (the source still holds them; they are just not shared).
func (c *ChunkCache) put(key chunkKey, data []byte) {
	size := int64(len(data))
	if size > c.capBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.entries[key]; dup {
		return // a concurrent loader won the race; identical bytes
	}
	for c.used+size > c.capBytes {
		back := c.ll.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*chunkEntry)
		c.ll.Remove(back)
		delete(c.entries, ent.key)
		c.used -= int64(len(ent.data))
		c.evictions++
	}
	c.entries[key] = c.ll.PushFront(&chunkEntry{key: key, data: data})
	c.used += size
}

// invalidateMovie drops every cached chunk of one movie instance (delete
// path). O(entries); deletes are rare next to reads.
func (c *ChunkCache) invalidateMovie(movie uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		ent := el.Value.(*chunkEntry)
		if ent.key.movie == movie {
			c.ll.Remove(el)
			delete(c.entries, ent.key)
			c.used -= int64(len(ent.data))
		}
		el = next
	}
}

// Stats snapshots the cache counters.
func (c *ChunkCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Bytes:     c.used,
		CapBytes:  c.capBytes,
	}
}
