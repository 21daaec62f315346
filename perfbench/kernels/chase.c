// @KERNEL: chase -- struct pointer chase through a heap array
// @EXPECT: exit 88
#include <stdlib.h>
#define N 96
#define K 7
struct node { int value; struct node *next; };
int main(void) {
    struct node *nodes = malloc(N * sizeof(struct node));
    for (int i = 0; i < N; i++) {
        nodes[i].value = (i * K) % 97;
        nodes[i].next = &nodes[(i * 37 + 11) % N];
    }
    int sum = 0;
    struct node *n = &nodes[0];
    for (int s = 0; s < 4 * N; s++) {
        sum = (sum + n->value) % 65521;
        n = n->next;
    }
    free(nodes);
    return sum % 256;
}
