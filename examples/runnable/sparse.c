int main() {
    double big[2000000];
    int hist[64];
    int i, k;
    double s = 0.0;
    for (i = 0; i < 64; i++) {
        hist[i] = 0;
    }
    for (i = 0; i < 2000; i++) {
        big[i] = i;
        big[1999999 - i] = i;
    }
    for (i = 0; i < 2000; i++) {
        k = i % 64;
        hist[k] = hist[k] + 1;
    }
    for (i = 0; i < 2000; i++) {
        s += big[i] + big[1000000 + i];
    }
    while (k > 0) {
        k--;
    }
    return s > 0.0;
}
