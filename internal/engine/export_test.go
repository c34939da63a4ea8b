package engine

// SelectPeriodDivisionsScratch exposes the protocol with a caller-owned
// arena, the form every engine cell solves through.
var SelectPeriodDivisionsScratch = selectPeriodDivisionsScratch
