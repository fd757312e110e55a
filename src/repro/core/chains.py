"""The removed chain compiler's last name.

Fragments run only as their bodies' generated functions
(:mod:`repro.core.closures`); there is no second execution tier.
``bench/layers.py`` (``ENTRY_POINTS``, line 38) still wraps
``ChainManager._build`` for its ``chains`` layer, which now always
reads zero.  This class keeps that name resolvable until the benchmark
drops the layer.  Nothing constructs it or calls ``_build``.
"""


class ChainManager:
    """Never constructed; ``_build`` must stay in the class dict for
    ``bench/layers.py:38``."""

    def _build(self, root):
        return None
