"""Package metadata for the ATAMAN TinyML-approximation reproduction."""

from pathlib import Path

from setuptools import find_packages, setup

ROOT = Path(__file__).parent


def _read_version() -> str:
    namespace: dict = {}
    exec((ROOT / "src" / "repro" / "_version.py").read_text(encoding="utf-8"), namespace)
    return namespace["__version__"]


def _read_long_description() -> str:
    readme = ROOT / "README.md"
    return readme.read_text(encoding="utf-8") if readme.exists() else ""


setup(
    name="repro-tinyml",
    version=_read_version(),
    description=(
        "Reproduction of a cooperative approximation framework for TinyML "
        "inference on MCUs: code unpacking, significance-driven computation "
        "skipping, DSE and board-level deployment models"
    ),
    long_description=_read_long_description(),
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    packages=find_packages("src"),
    package_dir={"": "src"},
    python_requires=">=3.10",
    install_requires=["numpy>=1.22"],
    extras_require={
        "test": ["pytest>=7", "pytest-benchmark", "hypothesis"],
    },
    entry_points={
        "console_scripts": [
            "repro-tinyml = repro.cli:main",
        ],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Scientific/Engineering :: Artificial Intelligence",
        "Topic :: Software Development :: Embedded Systems",
    ],
)
