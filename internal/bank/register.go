package bank

import (
	"repro/internal/gen"
	"repro/internal/memdb"
	"repro/internal/workload"
)

func init() {
	workload.Register(workload.Info{
		Name:          workload.Bank,
		RegisterReads: true,
		Gen:           gen.Bank,
		DB:            memdb.WorkloadBank,
		Analyzer:      workload.AnalyzerFunc(Analyze),
	})
}
