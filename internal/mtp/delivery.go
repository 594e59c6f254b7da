package mtp

import "sync/atomic"

// DeliveryStats counts the process-wide activity of the zero-copy delivery
// path: how many packets stream senders handed to conns without copying,
// how many batches were coalesced, and how many payload bytes travelled
// without a user-space copy. The core server exports them as metric
// families.
type DeliveryStats struct {
	// VecSends counts data packets stream senders handed to a conn's
	// SendBatch as header and payload slices (the zero-copy path);
	// CopySends counts those of them the UDP conn had to gather into a
	// buffer because its platform has no sendmmsg.
	VecSends  int64
	CopySends int64
	// Batches counts SendBatch calls that coalesced 2+ frames; BatchFrames
	// counts the frames they carried.
	Batches     int64
	BatchFrames int64
	// VecBytes counts payload bytes handed to conns without a copy.
	VecBytes int64
}

var (
	vecSends    atomic.Int64
	copySends   atomic.Int64
	batchSends  atomic.Int64
	batchFrames atomic.Int64
	vecBytes    atomic.Int64
)

// Delivery snapshots the process-wide delivery counters.
func Delivery() DeliveryStats {
	return DeliveryStats{
		VecSends:    vecSends.Load(),
		CopySends:   copySends.Load(),
		Batches:     batchSends.Load(),
		BatchFrames: batchFrames.Load(),
		VecBytes:    vecBytes.Load(),
	}
}
