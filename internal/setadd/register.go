package setadd

import (
	"repro/internal/gen"
	"repro/internal/memdb"
	"repro/internal/workload"
)

func init() {
	workload.Register(workload.Info{
		Name:        workload.SetAdd,
		Aliases:     []string{"set"},
		Gen:         gen.Set,
		DB:          memdb.WorkloadSet,
		Incremental: begin,
		Analyzer:    workload.AnalyzerFunc(Analyze),
	})
}
