package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"distknn/internal/metricindex"
	"distknn/internal/points"
	"distknn/internal/wire"
)

// sink keeps timed results alive so the compiler cannot drop the calls.
var sink uint64

// medianPass runs pass microPasses times and returns the median duration
// divided by ops.
func medianPass(ops int, pass func()) float64 {
	times := make([]float64, microPasses)
	for i := range times {
		t0 := time.Now()
		pass()
		times[i] = float64(time.Since(t0)) / float64(ops)
	}
	sort.Float64s(times)
	return times[len(times)/2]
}

// layerTimings times direct calls into the wire codec, the local top-ℓ
// index, the distance kernel and the metric index at the workload's shape,
// from the benchmark's side of each layer's public functions.
func (b *bench[P]) layerTimings(res *result) error {
	if err := b.wireTimings(res); err != nil {
		return err
	}
	if err := b.localTimings(res); err != nil {
		return err
	}
	return b.planTimings(res)
}

// wireTimings encodes every call of the query pool the way the client
// does (point codec, then a tagged query frame in a pooled writer) and
// decodes a reply frame carrying the oracle answers the way the client's
// reader does.
func (b *bench[P]) wireTimings(res *result) error {
	batch := b.w.batch
	calls := len(b.pool) / batch
	reps := make([]wire.Reply, calls)
	replies := make([][]byte, calls)
	var rBytes int
	for c := range calls {
		reps[c].Results = make([]wire.QueryReply, batch)
		for i := range batch {
			want := b.want[c*batch+i]
			reps[c].Results[i] = wire.QueryReply{QueryOutcome: wire.QueryOutcome{Boundary: want[len(want)-1].Key}, Items: want}
		}
		var w wire.Writer
		w.BeginFrame()
		wire.AppendReplyTagged(&w, uint64(c), reps[c])
		replies[c] = w.Bytes()
		rBytes += len(replies[c])
	}

	// appendQuery frames call c's query into w as the client does.
	appendQuery := func(w *wire.Writer, c int) {
		q := wire.Query{Op: wire.OpKNN, L: b.w.l, Tag: b.codec.Tag, Points: make([][]byte, batch)}
		for i := range batch {
			q.Points[i] = b.codec.Encode(b.pool[c*batch+i])
		}
		w.BeginFrame()
		wire.AppendQueryTagged(w, uint64(c), q)
	}
	encode := func(c int) int {
		w := wire.GetWriter()
		appendQuery(w, c)
		n := w.Len()
		wire.PutWriter(w)
		return n
	}
	decode := func(c int) error {
		r := wire.NewReader(replies[c][4:])
		r.Kind()
		r.Varint()
		rep, err := wire.DecodeReply(r)
		sink += uint64(len(rep.Results))
		return err
	}
	var qBytes int
	for c := range calls {
		qBytes += encode(c)
		if err := decode(c); err != nil {
			return fmt.Errorf("decode reply: %w", err)
		}
	}
	encNS := medianPass(calls, func() {
		for c := range calls {
			sink += uint64(encode(c))
		}
	})
	decNS := medianPass(calls, func() {
		for c := range calls {
			_ = decode(c) // every frame decoded cleanly above
		}
	})

	// One round trip: the client frames the query, the frontend decodes it
	// into a reused Query and frames the reply, the client decodes that.
	var into wire.Query
	roundTrip := func(c int) {
		w := wire.GetWriter()
		appendQuery(w, c)
		r := wire.NewReader(w.Bytes()[4:])
		r.Kind()
		r.Varint()
		_ = wire.DecodeQueryInto(r, &into) // framed just above
		wire.PutWriter(w)
		w = wire.GetWriter()
		w.BeginFrame()
		wire.AppendReplyTagged(w, uint64(c), reps[c])
		wire.PutWriter(w)
		_ = decode(c)
	}
	roundTrip(0)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for c := range calls {
		roundTrip(c)
	}
	runtime.ReadMemStats(&m1)

	note := fmt.Sprintf("%d frames of %d points, median of %d passes", calls, batch, microPasses)
	res.add("wire.query_encode_ns", encNS, "ns", note)
	res.add("wire.reply_decode_ns", decNS, "ns", note)
	res.add("wire.query_frame_bytes", float64(qBytes)/float64(calls), "B", fmt.Sprintf("%d frames", calls))
	res.add("wire.reply_frame_bytes", float64(rBytes)/float64(calls), "B", fmt.Sprintf("%d frames", calls))
	res.add("wire.allocs_per_roundtrip", float64(m1.Mallocs-m0.Mallocs)/float64(calls), "count", fmt.Sprintf("%d round trips", calls))
	return nil
}

// localTimings times the node-side top-ℓ step — the shard's index built
// exactly as a serving node builds it — for every pool query on the shard
// holding its nearest neighbour (the shard a pruned dispatch contacts; any
// shard on the full-scatter workloads), and the raw distance kernel.
func (b *bench[P]) localTimings(res *result) error {
	topL := make([]func(P, int) []points.Item, len(b.parts))
	for id, sh := range b.parts {
		set, err := points.NewSet(sh.Points, sh.Labels, b.metric, sh.FirstID)
		if err != nil {
			return fmt.Errorf("shard %d set: %w", id, err)
		}
		if sh.IDs != nil {
			copy(set.IDs, sh.IDs)
		}
		topL[id] = set.TopLItems
		if b.index != nil {
			if topL[id], err = b.index(set); err != nil {
				return fmt.Errorf("shard %d index: %w", id, err)
			}
		}
	}
	home := make([]int, len(b.pool))
	for i, want := range b.want {
		home[i] = b.owner[want[0].Key.ID]
	}
	toplUS := medianPass(len(b.pool), func() {
		for i, q := range b.pool {
			sink += uint64(len(topL[home[i]](q, b.w.l)))
		}
	}) / 1e3
	res.add("local.topl_us", toplUS, "us", fmt.Sprintf("%d queries, median of %d passes", len(b.pool), microPasses))

	const against = 64
	distNS := medianPass(len(b.pool)*against, func() {
		for _, q := range b.pool {
			for _, p := range b.data.Pts[:against] {
				sink += b.metric(p, q)
			}
		}
	})
	res.add("points.dist_ns", distNS, "ns", fmt.Sprintf("%d distances, median of %d passes", len(b.pool)*against, microPasses))
	return nil
}

// planTimings times the frontend's pruning plan for one point: the
// point type's Pruner measuring the encoded query's distance to every
// shard centroid, and metricindex.Admit testing each shard's ball against
// the point's ℓ-th neighbour distance. Centroids and radii are the
// summaries the serving nodes report. The plan is timed on every
// workload; only pruned runs it while serving.
func (b *bench[P]) planTimings(res *result) error {
	pr := b.pt.Pruner()
	if pr == nil {
		return fmt.Errorf("point type of %s has no pruning geometry", b.w.name)
	}
	centers := make([][]byte, len(b.parts))
	radius := make([]float64, len(b.parts))
	for id, sh := range b.parts {
		if len(sh.Points) == 0 {
			return fmt.Errorf("shard %d is empty", id)
		}
		c := sh.Points[metricindex.ApproxMedoid(sh.Points, b.metric)]
		if sh.Center != nil {
			c = *sh.Center
		}
		centers[id] = b.codec.Encode(c)
		radius[id] = metricindex.Radius(sh.Points, c, b.metric, pr.KeyDist)
	}
	queries := make([][]byte, len(b.pool))
	ub := make([]float64, len(b.pool))
	for i, q := range b.pool {
		queries[i] = b.codec.Encode(q)
		ub[i] = pr.KeyDist(b.want[i][len(b.want[i])-1].Key.Dist)
	}
	var planErr error
	planNS := medianPass(len(queries), func() {
		for i, q := range queries {
			for id, c := range centers {
				d, err := pr.CenterDist(q, c)
				if err != nil {
					planErr = err
				}
				if metricindex.Admit(d, radius[id], ub[i]) {
					sink++
				}
			}
		}
	})
	if planErr != nil {
		return fmt.Errorf("centroid distance: %w", planErr)
	}
	res.add("metricindex.plan_ns", planNS, "ns",
		fmt.Sprintf("%d queries × %d shards, median of %d passes", len(queries), len(centers), microPasses))
	return nil
}
