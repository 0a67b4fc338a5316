package counter

import (
	"repro/internal/gen"
	"repro/internal/memdb"
	"repro/internal/workload"
)

func init() {
	workload.Register(workload.Info{
		Name:          workload.Counter,
		RegisterReads: true,
		Gen:           gen.Counter,
		DB:            memdb.WorkloadCounter,
		Analyzer:      workload.AnalyzerFunc(Analyze),
	})
}
