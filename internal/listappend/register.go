package listappend

import (
	"repro/internal/gen"
	"repro/internal/memdb"
	"repro/internal/workload"
)

func init() {
	workload.Register(workload.Info{
		Name:        workload.ListAppend,
		Aliases:     []string{"list"},
		Gen:         gen.ListAppend,
		DB:          memdb.WorkloadList,
		Incremental: begin,
		Analyzer:    workload.AnalyzerFunc(Analyze),
	})
}
