package katomic

import (
	"repro/internal/gen"
	"repro/internal/memdb"
	"repro/internal/workload"
)

func init() {
	workload.Register(workload.Info{
		Name:          workload.KAtomic,
		Aliases:       []string{"k-atomic", "katomic-register"},
		RegisterReads: true,
		Gen:           gen.KAtomic,
		DB:            memdb.WorkloadRegister,
		Analyzer:      workload.AnalyzerFunc(Analyze),
	})
}
