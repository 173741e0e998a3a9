"""Independent reference implementations the tests and benchmarks check
the package against.

``lp``
    a stateless ``scipy.optimize.linprog`` solve of the marginal-balance LP.
``assembly_reference``
    the seed row-by-row constraint emitter.
``ctmc``
    a dense null-space solve of ``pi @ Q = 0``.

``pyproject.toml`` puts ``tests/`` on pytest's ``pythonpath``, so both
``tests/`` and ``benchmarks/`` import these as ``oracles.<name>``.
"""
