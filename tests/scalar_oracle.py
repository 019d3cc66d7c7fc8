"""The parity oracle: a ``CostMatrix`` priced row by row by the scalar formulas.

:func:`scalar_matrix` prices every subpath through
:func:`repro.costmodel.subpath.subpath_processing_cost` (the paper's
formulas, one row and one organization at a time) and assembles the
result as a :class:`CostMatrix` with breakdowns. The columnar kernel
behind :meth:`CostMatrix.compute` must match it bit for bit.
"""

from repro.core.cost_matrix import CostMatrix
from repro.costmodel.subpath import SubpathContext, subpath_processing_cost
from repro.organizations import (
    CONFIGURABLE_ORGANIZATIONS,
    EXTENDED_ORGANIZATIONS,
    IndexOrganization,
)


def scalar_matrix(
    stats,
    load,
    organizations=CONFIGURABLE_ORGANIZATIONS,
    include_noindex=False,
    range_selectivity=None,
):
    """The matrix :meth:`CostMatrix.compute` must reproduce exactly."""
    if include_noindex and IndexOrganization.NONE not in organizations:
        organizations = tuple(EXTENDED_ORGANIZATIONS)
    length = stats.length
    entries = {}
    breakdowns = {}
    for start in range(1, length + 1):
        for end in range(start, length + 1):
            context = SubpathContext.build(
                stats, load, start, end, range_selectivity=range_selectivity
            )
            row = {
                organization: subpath_processing_cost(
                    stats,
                    load,
                    start,
                    end,
                    organization,
                    range_selectivity=range_selectivity,
                    context=context,
                )
                for organization in organizations
            }
            breakdowns[(start, end)] = row
            entries[(start, end)] = {
                organization: cost.total for organization, cost in row.items()
            }
    return CostMatrix(length, tuple(organizations), entries, breakdowns)
