"""Certify the predicted tables against the literal graphs.

The oracle builds each graph vertex by vertex, groups the vertices into
cells around a base vertex, and checks in exact integers that the cells
form an equitable partition of a vertex-transitive graph whose small
quotient matrix has exactly the predicted eigenvalues and closed-walk
counts.  That fixes the whole spectrum with multiplicities; trace
identities are checked as well.  No step uses floating point."""

from pmspec import oracle, pm_spectrum_table, sym_spectrum_table

for n in (2, 3, 4, 5):
    report = oracle.certify(pm_spectrum_table(n), oracle.build_pm_graph(n))
    print(report.to_text())

for n in (2, 3, 4, 5, 6):
    report = oracle.certify(sym_spectrum_table(n), oracle.build_derangement_graph(n))
    print(report.to_text())
