package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call the harness made into a layer. Start and End are
// nanoseconds since the harness clock's base; Parent indexes the span that
// caused this one (-1 for a root); Op names the MCAM operation or replay
// batch the span belongs to.
//
// The harness sees the system only from outside, so the children of a real
// call are replays: after a sampled Client.Call returns, its request and
// reply are pushed through each layer's public functions in isolation, and
// each replay is recorded as a child carrying the interval of the replay
// itself. Children of one parent never overlap, so the part of the parent
// they explain is the sum of their durations.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int32  `json:"parent"`
	Op     string `json:"op"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory for one goroutine; traceFile merges them
// when the run ends. The backing array is allocated once, at set-up.
type tracer struct {
	spans   []span
	dropped int
}

func newTracer(capacity int) *tracer { return &tracer{spans: make([]span, 0, capacity)} }

var clockBase = time.Now()

// nowNs is the harness clock: monotonic nanoseconds since process start.
func nowNs() int64 { return int64(time.Since(clockBase)) }

// add records a finished span and returns its index, or -1 when the
// preallocated buffer is full (the span is counted as dropped rather than
// growing the heap inside a measured phase).
func (t *tracer) add(name, op string, parent int32, start, end int64) int32 {
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Op: op})
	return int32(len(t.spans) - 1)
}

// selfTimes returns, for every span, its duration minus its children's
// durations, and how many spans' children add up to more than the span
// itself (their self time is negative).
func selfTimes(spans []span) (self []int64, negative int) {
	self = make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	for _, v := range self {
		if v < 0 {
			negative++
		}
	}
	return self, negative
}

// mergeTracers concatenates per-goroutine span buffers, rebasing parent
// indexes.
func mergeTracers(ts ...*tracer) (all []span, dropped int) {
	for _, t := range ts {
		if t == nil {
			continue
		}
		base := int32(len(all))
		for _, s := range t.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			all = append(all, s)
		}
		dropped += t.dropped
	}
	return all, dropped
}

// traceFile is what a traced run leaves in bench/out/trace-<workload>.json.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Dropped  int                `json:"dropped_spans"`
	SelfNs   map[string]float64 `json:"median_self_ns"`
	Spans    []span             `json:"spans"`
}

func writeTrace(path string, tf *traceFile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(tf); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
