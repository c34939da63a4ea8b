package streamit

import "fmt"

// TableRow formats the workflow like a row of Table 1.
func (a App) TableRow() string {
	return fmt.Sprintf("%-2d %-15s %4d %5d %5d %6.0f", a.Index, a.Name, a.N, a.YMax, a.XMax, a.CCR)
}
