package moviedb

import (
	"errors"
	"io"

	"xmovie/internal/stripe"
)

// DefaultShards is the stripe count NewShardedStore uses for shards <= 0:
// enough stripes that thousands of concurrent sessions rarely collide on
// one lock, small enough that List's merge stays cheap.
const DefaultShards = 64

// ShardedStore is a Store striped over independent backing shards, keyed
// by movie name. Per-movie operations touch exactly one shard's lock, so
// sessions operating on different movies proceed in parallel instead of
// serializing on a single store mutex; only List crosses shards. Shards
// are MemStores for the in-memory form (NewShardedStore) and DiskStores
// for the durable form (OpenShardedDiskStore).
type ShardedStore struct {
	shards []Store
	mask   uint32
}

var _ Store = (*ShardedStore)(nil)

// NewShardedStore returns an empty in-memory store striped over the given
// number of shards, rounded up to a power of two (<= 0 selects
// DefaultShards).
func NewShardedStore(shards int) *ShardedStore {
	if shards <= 0 {
		shards = DefaultShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	stores := make([]Store, n)
	for i := range stores {
		stores[i] = NewMemStore()
	}
	return newShardedOver(stores)
}

// newShardedOver stripes over pre-built shards; len(stores) must be a
// power of two.
func newShardedOver(stores []Store) *ShardedStore {
	return &ShardedStore{shards: stores, mask: uint32(len(stores) - 1)}
}

// Shards returns the stripe count.
func (s *ShardedStore) Shards() int { return len(s.shards) }

// shard selects the stripe for a movie name (FNV-1a).
func (s *ShardedStore) shard(name string) Store {
	return s.shards[stripe.FNV32a(name)&s.mask]
}

// Create implements Store.
func (s *ShardedStore) Create(m *Movie) error { return s.shard(m.Name).Create(m) }

// Get implements Store.
func (s *ShardedStore) Get(name string) (*Movie, error) { return s.shard(name).Get(name) }

// Info implements Store.
func (s *ShardedStore) Info(name string) (Info, error) { return s.shard(name).Info(name) }

// Delete implements Store.
func (s *ShardedStore) Delete(name string) error { return s.shard(name).Delete(name) }

// SetAttrs implements Store.
func (s *ShardedStore) SetAttrs(name string, updates Attributes) error {
	return s.shard(name).SetAttrs(name, updates)
}

// Record implements Store.
func (s *ShardedStore) Record(name string) (Recorder, error) {
	return s.shard(name).Record(name)
}

// List implements Store: a merge over the shards' (individually sorted)
// listings. The result is a consistent-per-shard, not globally atomic,
// snapshot — names created or deleted concurrently may or may not appear.
func (s *ShardedStore) List() []string {
	// bounds[i] is where run i starts in names; the last entry is the end.
	bounds := make([]int, 0, len(s.shards)+1)
	var names []string
	for _, sh := range s.shards {
		bounds = append(bounds, len(names))
		names = append(names, sh.List()...)
	}
	bounds = append(bounds, len(names))
	// Merge neighbouring runs pairwise, round by round, between names and
	// one spare buffer, until one run is left.
	spare := make([]string, len(names))
	for len(bounds) > 2 {
		next := bounds[:0]
		for i := 0; i+1 < len(bounds); i += 2 {
			lo, mid, hi := bounds[i], bounds[i+1], bounds[i+1]
			if i+2 < len(bounds) {
				hi = bounds[i+2]
			}
			mergeRuns(spare[lo:hi], names[lo:mid], names[mid:hi])
			next = append(next, lo)
		}
		bounds = append(next, len(names))
		names, spare = spare, names
	}
	return names
}

// mergeRuns merges the sorted runs a and b into dst (len(a)+len(b) long).
func mergeRuns(dst, a, b []string) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if b[j] < a[i] {
			dst[k] = b[j]
			j++
		} else {
			dst[k] = a[i]
			i++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}

// Close closes every shard that holds resources (disk shards; memory
// shards have none).
func (s *ShardedStore) Close() error {
	var errs []error
	for _, sh := range s.shards {
		if c, ok := sh.(io.Closer); ok {
			if err := c.Close(); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}
