package moviedb

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// OpenShardedDiskStore opens a durable store striped over independent
// DiskStore shards (subdirectories shard-000..), sharing one chunk cache so
// the cache bound is store-wide. A directory that already holds shards is
// reopened with its existing stripe count — the FNV name-to-shard mapping
// must match what the movies were written under — otherwise shards stripes
// are created (<= 0 selects DefaultDiskShards), rounded up to a power of
// two.
func OpenShardedDiskStore(dir string, shards int, cfg DiskConfig) (*ShardedStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("moviedb: disk store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("moviedb: %w", err)
	}
	existing := 0
	for {
		if _, err := os.Stat(filepath.Join(dir, shardDirName(existing))); err != nil {
			break
		}
		existing++
	}
	if existing == 0 {
		if shards <= 0 {
			shards = DefaultDiskShards
		}
		existing = shards
	}
	// Round up to a power of two even when reopening: a crash during the
	// very first open can leave a partial (non-power-of-two) set of shard
	// directories — before any movie was written, so completing the set is
	// safe — and the FNV mask routing requires the full power of two.
	n := 1
	for n < existing {
		n <<= 1
	}
	if cfg.Cache == nil {
		cfg.Cache = NewChunkCache(cfg.CacheBytes)
	}
	stores := make([]Store, n)
	for i := range stores {
		ds, err := OpenDiskStore(filepath.Join(dir, shardDirName(i)), cfg)
		if err != nil {
			for _, prev := range stores[:i] {
				prev.(*DiskStore).Close()
			}
			return nil, err
		}
		stores[i] = ds
	}
	return newShardedOver(stores), nil
}

func shardDirName(i int) string { return fmt.Sprintf("shard-%03d", i) }

// WriteRawFrames writes every frame of src to w in the raw frame-file
// format — the same length-prefixed records the segment store uses — and
// returns the number of frames written. This is the mcamctl export format.
//
// src must not be live-tailing past the caller's horizon: on a recording
// movie this would follow the appender indefinitely. Use WriteRawFramesN
// with a length snapshot for a consistent-prefix export.
func WriteRawFrames(w io.Writer, src FrameSource) (int64, error) {
	return WriteRawFramesN(w, src, -1)
}

// WriteRawFramesN writes at most max frames of src to w in the raw
// frame-file format (max < 0 means until io.EOF). Exports of a movie that
// is being recorded pass a Len() snapshot taken at open, so the written
// file is a consistent prefix instead of a race with the appender.
func WriteRawFramesN(w io.Writer, src FrameSource, max int64) (int64, error) {
	bw := bufio.NewWriter(w)
	var hdr [frameHeaderLen]byte
	n := int64(0)
	for max < 0 || n < max {
		f, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return n, err
		}
		binary.BigEndian.PutUint32(hdr[:], uint32(len(f)))
		if _, err := bw.Write(hdr[:]); err != nil {
			return n, err
		}
		if _, err := bw.Write(f); err != nil {
			return n, err
		}
		n++
	}
	return n, bw.Flush()
}

// ReadRawFrames parses a raw frame file (length-prefixed records) into
// materialized frames. A torn trailing record is an error here — an import
// should not silently drop data the way crash recovery deliberately does.
func ReadRawFrames(r io.Reader) ([][]byte, error) {
	br := bufio.NewReader(r)
	var frames [][]byte
	var hdr [frameHeaderLen]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err == io.EOF {
			return frames, nil
		} else if err != nil {
			return nil, fmt.Errorf("moviedb: raw frame %d: torn header: %w", len(frames), err)
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n > MaxFrameBytes {
			return nil, fmt.Errorf("moviedb: raw frame %d: length %d exceeds MaxFrameBytes", len(frames), n)
		}
		f := make([]byte, n)
		if _, err := io.ReadFull(br, f); err != nil {
			return nil, fmt.Errorf("moviedb: raw frame %d: torn payload: %w", len(frames), err)
		}
		frames = append(frames, f)
	}
}
