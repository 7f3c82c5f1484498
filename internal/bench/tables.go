package bench

import "io"

// Table is one experiment table: Run regenerates it at its fixed sizes.
type Table struct {
	Name string
	Exps string // the experiments it prints (DESIGN.md's index)
	Run  func(w io.Writer) error
}

// Tables lists every table in the order viabench -table=all prints them.
// The golden ledger (ledger_test.go) pins each one's output in
// testdata/<name>.golden.
var Tables = []Table{
	{"locktest", "E1, E8", Locktest},
	{"regcost", "E3", RegCost},
	{"deregcost", "E4", DeregCost},
	{"survival", "E5", Survival},
	{"protocols", "E6", Protocols},
	{"regcache", "E7", RegCache},
	{"regconc", "E15", RegConc},
	{"multireg", "E2", MultiReg},
	{"swapsim", "E9", SwapSim},
	{"divergence", "E10", Divergence},
	{"piodma", "E11", PIODMA},
	{"latency", "E12", Latency},
	{"ablation", "A1-A4", Ablations},
	{"bigphys", "E13", Bigphys},
	{"mpi", "E14, IS-mini", MPI},
	{"msgrate", "E16", MsgRate},
	{"smallmsg", "E24", SmallMsg},
	{"chaos", "E17", Chaos},
	{"rendezvous", "E19", Rendezvous},
	{"remap", "E23", Remap},
	{"nopin", "E20", NoPin},
	{"e21", "E21", E21},
	{"multirail", "E22", Multirail},
	{"obs", "E18", Obs},
}
