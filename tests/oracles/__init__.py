"""Independent reference implementations the tests and benchmarks check
the package against.

``lp``
    a stateless ``scipy.optimize.linprog`` solve of the marginal-balance LP.
``assembly_reference``
    the seed row-by-row constraint emitter.

``pyproject.toml`` puts ``tests/`` on pytest's ``pythonpath``, so both
``tests/`` and ``benchmarks/`` import these as ``oracles.<name>``.
"""
