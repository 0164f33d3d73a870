"""Reference global router: every cell re-priced before every net.

:class:`repro.route.router.GlobalRouter` keeps its flat cost array in
step with ``usage``/``history`` incrementally: it syncs once when
``route()`` starts, then each commit and history bump re-prices only
the cells it changes. This oracle rebuilds the whole array from the
public dicts before embedding each net, so any cell the incremental
path forgets to re-price shows up as a different route.
"""

from __future__ import annotations

from repro.route.router import GlobalRouter, Net, RoutedNet


class ResyncRouter(GlobalRouter):
    """:class:`GlobalRouter` with a full cost re-sync before every net."""

    def _embed_net(self, net: Net, synced: bool = False) -> RoutedNet:
        self._sync_costs()
        return super()._embed_net(net, synced=True)
