package main

import (
	"math/rand/v2"
	"time"

	"distknn"
	"distknn/internal/kdtree"
	"distknn/internal/points"
	"distknn/internal/wire"
)

// Every node holds 4096 points, and the closed-loop callers cycle through a
// pool of 2048 distinct query points.
const (
	perNode   = 4096
	queryPool = 2048
)

// queryStream is the xrand stream the query pool is drawn from; the shard
// providers use the streams 0..k-1 of the same seed.
const queryStream = 0x9e7f

// workload is one named traffic mix: a data set, a query stream, a frontend
// configuration and a closed-loop caller shape. Its why, loads and bypasses
// fields are the reasoning later changes cite by workload name; why is
// also the workload's entry in BENCHMARK.json.
type workload struct {
	name     string
	why      string
	loads    []string // layers the workload puts on the blocking path
	bypasses []string // layers it never reaches: a change there must not move it
	k        int      // serving nodes
	callers  int      // closed-loop callers sharing one client connection
	batch    int      // points per call: 1 issues KNN, more issue KNNBatch
	l        int      // ℓ, neighbors per point
	tail     float64  // percentile reported as latency_tail_ms, fixed so runs compare
	params   map[string]any
	newBench func(w *workload, seed uint64) runner
}

// runner measures one workload at one seed.
type runner interface {
	endToEnd(d time.Duration) (*result, error)
	traced(d time.Duration) (*result, error)
}

var workloads = []*workload{
	{
		name:     "scatter",
		why:      "Paper's Algorithm 2 on the resident mesh, 8 KNN calls outstanding: ~33 BSP rounds/query, time in mesh link I/O. Loads mesh and core; bypasses metricindex.",
		loads:    []string{"client", "frontend", "wire", "mesh", "core", "local index (scan)"},
		bypasses: []string{"metricindex"},
		k:        4,
		callers:  8,
		batch:    1,
		l:        16,
		tail:     0.99,
		params: map[string]any{
			"point_type": "ScalarPoints", "shards": "PaperShards(seed, 4096)", "window": 8, "pruner": false, "server_batch": false, "outstanding": 8, "call": "KNN",
			"queries": "uniform in the paper domain [0, 2^32)",
		},
		newBench: func(w *workload, seed uint64) runner {
			return &bench[points.Scalar]{
				w: w, seed: seed,
				pt:     distknn.ScalarPoints(),
				metric: points.ScalarMetric,
				codec:  wire.ScalarCodec,
				shards: distknn.PaperShards(seed, perNode),
				queries: func(rng *rand.Rand, _ []distknn.Shard[points.Scalar]) []points.Scalar {
					qs := make([]points.Scalar, queryPool)
					for i := range qs {
						qs[i] = points.Scalar(rng.Uint64N(points.PaperDomain))
					}
					return qs
				},
				inproc: func(pts []points.Scalar, labels []float64, o distknn.Options) (*distknn.Cluster[points.Scalar], error) {
					return distknn.NewCluster(pts, labels, points.ScalarMetric, o)
				},
			}
		},
	},
	{
		name:     "pruned",
		why:      "Pruned dispatch on Gaussian blobs, 8 KNN calls outstanding: 1 contact/query, no mesh epoch. Loads client, frontend, wire, metricindex, k-d tree; bypasses mesh.",
		loads:    []string{"client", "frontend", "wire", "metricindex", "local index (k-d tree)"},
		bypasses: []string{"mesh", "core"},
		k:        8,
		callers:  8,
		batch:    1,
		l:        16,
		tail:     0.99,
		params: map[string]any{
			"point_type": "VectorPoints", "dim": 8, "shards": "AnchorGaussianShards(seed, 4096, 8, 0.02)",
			"window": 8, "pruner": true, "probes": 1, "server_batch": false,
			"outstanding": 8, "call": "KNN", "queries": "shard mean plus N(0, 0.02^2) per coordinate",
		},
		newBench: func(w *workload, seed uint64) runner {
			return &bench[points.Vector]{
				w: w, seed: seed,
				pt:      distknn.VectorPoints(),
				metric:  points.L2,
				codec:   wire.VectorCodec,
				shards:  distknn.AnchorGaussianShards(seed, perNode, 8, 0.02),
				prune:   true,
				index:   kdIndex,
				queries: nearShardMeans(0.02),
				inproc:  distknn.NewVectorCluster,
			}
		},
	},
	{
		name:     "batch",
		why:      "Algorithm 2 with 32 lockstep points per epoch, 2 KNNBatch callers: per-point compute and frame bytes dominate, not per-round syscalls. Bypasses metricindex.",
		loads:    []string{"client", "frontend", "wire", "mesh (lockstep batch)", "core", "local index (k-d tree)"},
		bypasses: []string{"metricindex"},
		k:        4,
		callers:  2,
		batch:    32,
		l:        16,
		tail:     0.95,
		params: map[string]any{
			"point_type": "VectorPoints", "dim": 32, "shards": "UniformVectorShards(seed, 4096, 32)",
			"window": 8, "pruner": false, "server_batch": false,
			"outstanding": 2, "call": "KNNBatch of 32", "queries": "uniform in [0,1)^32",
		},
		newBench: func(w *workload, seed uint64) runner {
			return &bench[points.Vector]{
				w: w, seed: seed,
				pt:     distknn.VectorPoints(),
				metric: points.L2,
				codec:  wire.VectorCodec,
				shards: distknn.UniformVectorShards(seed, perNode, 32),
				index:  kdIndex,
				queries: func(rng *rand.Rand, _ []distknn.Shard[points.Vector]) []points.Vector {
					qs := make([]points.Vector, queryPool)
					for i := range qs {
						qs[i] = make(points.Vector, 32)
						for j := range qs[i] {
							qs[i][j] = rng.Float64()
						}
					}
					return qs
				},
				inproc: distknn.NewVectorCluster,
			}
		},
	},
}

func lookup(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// kdIndex builds the local top-ℓ index a VectorPoints node answers from.
func kdIndex(set *points.Set[points.Vector]) (func(points.Vector, int) []points.Item, error) {
	tree, err := kdtree.Build(set)
	if err != nil {
		return nil, err
	}
	return tree.KNN, nil
}

// nearShardMeans draws queries near the blob centres: each query picks a
// shard, takes the mean of its points (the anchor-clustered shards track
// the blobs) and adds Gaussian noise of the blobs' own spread.
func nearShardMeans(sigma float64) func(*rand.Rand, []distknn.Shard[points.Vector]) []points.Vector {
	return func(rng *rand.Rand, shards []distknn.Shard[points.Vector]) []points.Vector {
		var means []points.Vector
		for _, sh := range shards {
			if len(sh.Points) == 0 {
				continue
			}
			m := make(points.Vector, len(sh.Points[0]))
			for _, p := range sh.Points {
				for j, x := range p {
					m[j] += x
				}
			}
			for j := range m {
				m[j] /= float64(len(sh.Points))
			}
			means = append(means, m)
		}
		qs := make([]points.Vector, queryPool)
		for i := range qs {
			c := means[rng.IntN(len(means))]
			qs[i] = make(points.Vector, len(c))
			for j := range c {
				qs[i][j] = c[j] + rng.NormFloat64()*sigma
			}
		}
		return qs
	}
}
