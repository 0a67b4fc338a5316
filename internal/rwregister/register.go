package rwregister

import (
	"repro/internal/gen"
	"repro/internal/memdb"
	"repro/internal/workload"
)

func init() {
	workload.Register(workload.Info{
		Name:          workload.RWRegister,
		Aliases:       []string{"register"},
		RegisterReads: true,
		Gen:           gen.Register,
		DB:            memdb.WorkloadRegister,
		Incremental:   begin,
		Analyzer:      workload.AnalyzerFunc(Analyze),
	})
}
