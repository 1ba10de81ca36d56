from setuptools import find_packages, setup

with open("README.md", encoding="utf-8") as handle:
    LONG_DESCRIPTION = handle.read()

setup(
    name="repro-anyk",
    version="1.10.0",
    description=(
        "Optimal joins meet top-k: ranked (any-k) enumeration for "
        "conjunctive queries, with a SQL front-end, cost-based engine "
        "router, partition-parallel sharded execution, a concurrent "
        "query server with resumable snapshot-isolated cursors over "
        "versioned dynamic data, a seeded load-generation/SLO "
        "harness, and end-to-end observability (tracing, a unified "
        "metrics registry, in-engine anytime-delay profiles, EXPLAIN "
        "ANALYZE) (reproduction of Tziavelis, "
        "Gatterbauer, Riedewald, SIGMOD 2020)"
    ),
    long_description=LONG_DESCRIPTION,
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=[],
    extras_require={
        # scipy only as the oracle of the cover-LP solver's test.
        "test": ["pytest", "hypothesis", "scipy"],
    },
    entry_points={
        "console_scripts": [
            "repro-sql = repro.sql.cli:main",
            "repro-serve = repro.server.cli:main",
            "repro-loadgen = repro.workload.cli:main",
            "repro-obs = repro.obs.cli:main",
        ],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Database :: Database Engines/Servers",
    ],
)
