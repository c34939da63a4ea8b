package core

// DPA1DWork reports the DPA1D runs this process has executed and how many
// of them ran out of budget, for the work-count tests of package core_test.
func DPA1DWork() (runs, budgetFailures int64) {
	return dpa1dWork.runs.Load(), dpa1dWork.budgetFailures.Load()
}
