package areplica_test

// The benchmark suite regenerates every table and figure of the paper's
// evaluation (quick mode) under `go test -bench`, reporting the headline
// numbers as custom benchmark metrics so regressions in the reproduction's
// *shape* are visible in benchmark diffs:
//
//	go test -bench=. -benchmem
//
// Absolute numbers are simulator outputs, not testbed measurements; the
// metrics to watch are the ratios (AReplica vs baseline) and the SLO
// attainment/tail figures.

import (
	"testing"

	"repro/internal/cloud"
	"repro/internal/experiments"
	"repro/internal/stats"
)

func benchOnce(b *testing.B, run func()) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		run()
	}
}

func BenchmarkTable1FromAWS(b *testing.B) {
	var res *experiments.TableResult
	benchOnce(b, func() {
		res = experiments.RunTable(experiments.TableConfig{Source: experiments.AWSEast, Quick: true})
	})
	reportTable(b, res)
}

func BenchmarkTable2FromAzure(b *testing.B) {
	var res *experiments.TableResult
	benchOnce(b, func() {
		res = experiments.RunTable(experiments.TableConfig{Source: experiments.AzureEast, Quick: true})
	})
	reportTable(b, res)
}

func BenchmarkTable3FromGCP(b *testing.B) {
	var res *experiments.TableResult
	benchOnce(b, func() {
		res = experiments.RunTable(experiments.TableConfig{Source: experiments.GCPEast, Quick: true})
	})
	reportTable(b, res)
}

// reportTable emits the mean delay-reduction versus the best baseline and
// the mean AReplica delay, the two headline metrics of Tables 1-3.
func reportTable(b *testing.B, res *experiments.TableResult) {
	var reduction, delay float64
	var n int
	for si := range res.Sizes {
		for di := range res.Dests {
			reduction += res.DelayReduction(si, di)
			delay += res.AReplica[si][di].DelayS
			n++
		}
	}
	b.ReportMetric(100*reduction/float64(n), "%delay-reduction")
	b.ReportMetric(delay/float64(n), "s/replication")
}

func BenchmarkTable4ModelVsMeasured(b *testing.B) {
	var res *experiments.Table4Result
	benchOnce(b, func() { res = experiments.RunTable4(true) })
	var ratio float64
	for _, e := range res.Entries {
		ratio += e.PredMean / e.MeasuredMean
	}
	b.ReportMetric(ratio/float64(len(res.Entries)), "pred/measured")
}

func BenchmarkFig2TraceSizes(b *testing.B) {
	var res *experiments.Fig2Result
	benchOnce(b, func() { res = experiments.RunFig2(true) })
	var le1MB float64
	for i := 0; i <= 4; i++ {
		le1MB += res.CountPct[i]
	}
	b.ReportMetric(le1MB, "%puts<=1MB")
}

func BenchmarkFig3TraceThroughput(b *testing.B) {
	var res *experiments.Fig3Result
	benchOnce(b, func() { res = experiments.RunFig3(true) })
	lo, hi := res.MBps[0], res.MBps[0]
	for _, v := range res.MBps {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	b.ReportMetric(hi/(lo+0.01), "x-rate-swing")
}

func BenchmarkFig4SkyplaneBreakdown(b *testing.B) {
	var res *experiments.Fig4Result
	benchOnce(b, func() { res = experiments.RunFig4() })
	b.ReportMetric(res.Breakdown.Total().Seconds(), "s/transfer")
	b.ReportMetric(100*float64(res.Breakdown.Transfer)/float64(res.Breakdown.Total()), "%time-in-transfer")
}

func BenchmarkFig5SkyplaneKeepAlive(b *testing.B) {
	var res *experiments.Fig5Result
	benchOnce(b, func() { res = experiments.RunFig5(true) })
	b.ReportMetric(res.Policies[0].MaxS, "s/max-delay-5min")
	b.ReportMetric(res.Policies[2].VMCost/res.Policies[0].VMCost, "cost-20s/5min")
}

func BenchmarkFig6BandwidthVsConfig(b *testing.B) {
	var res *experiments.Fig6Result
	benchOnce(b, func() { res = experiments.RunFig6(true) })
	var best float64
	for _, p := range res.Panels["aws:us-east-1"] {
		if p.DownloadMBps > best {
			best = p.DownloadMBps
		}
	}
	b.ReportMetric(best, "MiBps-peak")
}

func BenchmarkFig7Scaling(b *testing.B) {
	var res *experiments.Fig7Result
	benchOnce(b, func() { res = experiments.RunFig7(true) })
	s := res.Series[0]
	first := s.MBps[0] / float64(s.Counts[0])
	last := s.MBps[len(s.MBps)-1] / float64(s.Counts[len(s.Counts)-1])
	b.ReportMetric(last/first, "linearity")
}

func BenchmarkFig8Asymmetry(b *testing.B) {
	var res *experiments.Fig8Result
	benchOnce(b, func() { res = experiments.RunFig8(true) })
	byLabel := map[string]experiments.Fig8Bar{}
	for _, bar := range res.Bars {
		byLabel[bar.Label] = bar
	}
	b.ReportMetric(byLabel["AWS2Azure@AWS"].MeanMBps/byLabel["AWS2Azure@Azure"].MeanMBps, "aws/azure-side")
}

func BenchmarkFig9InstanceVariability(b *testing.B) {
	var res *experiments.Fig9Result
	benchOnce(b, func() { res = experiments.RunFig9() })
	var means []float64
	for _, samples := range res.Instances {
		var sum float64
		for _, s := range samples {
			sum += s.MBps
		}
		means = append(means, sum/float64(len(samples)))
	}
	b.ReportMetric(stats.Percentile(means, 100)/stats.Percentile(means, 0), "x-instance-spread")
}

func BenchmarkFig16Bulk(b *testing.B) {
	var res *experiments.BulkResult
	benchOnce(b, func() { res = experiments.RunFig16(true) })
	var speedup float64
	for _, p := range res.Pairs {
		speedup += p.SkyplaneS / p.AReplicaS
	}
	b.ReportMetric(speedup/float64(len(res.Pairs)), "x-faster-than-skyplane")
}

func BenchmarkFig17Scheduling(b *testing.B) {
	var res *experiments.Fig17Result
	benchOnce(b, func() { res = experiments.RunFig17(true) })
	b.ReportMetric(res.FairTaskSeconds/res.PoolTaskSeconds, "x-pool-speedup")
}

func BenchmarkFig18ModelAccuracyFastPath(b *testing.B) {
	var res *experiments.ModelAccuracyResult
	benchOnce(b, func() {
		res = experiments.RunModelAccuracy("aws:us-east-1", "azure:eastus", true)
	})
	b.ReportMetric(res.PredictedN32Mean/stats.Mean(res.ActualN32), "pred/measured-n32")
}

func BenchmarkFig19ModelAccuracySlowPath(b *testing.B) {
	var res *experiments.ModelAccuracyResult
	benchOnce(b, func() {
		res = experiments.RunModelAccuracy("azure:eastus", "gcp:asia-northeast1", true)
	})
	b.ReportMetric(res.PredictedN32Mean/stats.Mean(res.ActualN32), "pred/measured-n32")
}

func BenchmarkFig20RegionSelection(b *testing.B) {
	var res *experiments.Fig20Result
	benchOnce(b, func() {
		res = experiments.RunFig20("azure:southeastasia", []cloud.RegionID{
			"gcp:europe-west6", "gcp:us-east1",
		}, true)
	})
	var static, dynamic float64
	for _, row := range res.Rows {
		static += (row.SrcSideS + row.DstSideS) / 2
		dynamic += row.DynamicS
	}
	b.ReportMetric(static/dynamic, "x-vs-static-avg")
}

func BenchmarkFig21Changelog(b *testing.B) {
	var res *experiments.Fig21Result
	benchOnce(b, func() { res = experiments.RunFig21(true) })
	last := res.Rows[len(res.Rows)-1]
	b.ReportMetric(last.SkyplaneCost/last.AReplicaLogCost, "x-cheaper-than-skyplane")
}

func BenchmarkFig22Batching(b *testing.B) {
	var res *experiments.Fig22Result
	benchOnce(b, func() { res = experiments.RunFig22(true) })
	last := res.Points[len(res.Points)-1]
	b.ReportMetric(last.CostPerMinUnbatched/last.CostPerMinBatched, "x-cost-saving")
	b.ReportMetric(100*last.AttainmentBatched, "%slo-attainment")
}

func BenchmarkFig23Trace(b *testing.B) {
	var res *experiments.Fig23Result
	benchOnce(b, func() { res = experiments.RunFig23(true) })
	b.ReportMetric(res.AReplicaOverall, "s/p99.99-areplica")
	b.ReportMetric(res.S3RTCOverall, "s/p99.99-s3rtc")
}

func BenchmarkPartSizeAblation(b *testing.B) {
	var res *experiments.PartSizeResult
	benchOnce(b, func() { res = experiments.RunPartSizeAblation(true) })
	b.ReportMetric(res.Rows[len(res.Rows)-1].MeanS/res.Rows[1].MeanS, "x-big-part-penalty")
}

func BenchmarkOverlayRelayAblation(b *testing.B) {
	var res *experiments.OverlayResult
	benchOnce(b, func() { res = experiments.RunOverlayAblation(true) })
	b.ReportMetric(res.DirectS/res.RelayS, "x-relay-speedup")
	b.ReportMetric(res.RelayCost/res.DirectCost, "x-relay-cost")
}
