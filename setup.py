"""Setup shim.

The environment has no `wheel` package, so PEP 660 editable installs fail;
this shim lets `pip install -e . --no-use-pep517 --no-build-isolation`
(and plain `python setup.py develop`) work offline.
"""

from setuptools import find_packages, setup

setup(
    name="repro-pdq",
    version="1.1.0",
    description=(
        "Reproduction of 'Finishing Flows Quickly with Preemptive "
        "Scheduling' (PDQ), SIGCOMM 2012"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "networkx"],
    entry_points={
        "console_scripts": [
            "repro=repro.campaign.cli:main",
        ],
    },
)
